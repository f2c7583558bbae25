from wordlab import closure, verify


def test_full_suite_passes(verify_outcomes):
    assert list(verify_outcomes) == [name for name, _ in verify.CHECKS]
    failed = [o for o in verify_outcomes.values() if o.status == "fail"]
    assert failed == []


def test_equivalence_reports_word_count():
    (outcome,) = verify.run_verify_suite(only=["closure-oracle-equivalence"])
    assert outcome.status == "pass"
    assert "8190" in outcome.detail


def test_corrupted_classifier_fails_with_counterexample():
    def corrupted(w):
        verdict = closure.classify(w)
        if len(closure._as_bytes(w)) == 5:
            if verdict.closed:
                return closure.OPEN
            return closure.ClosureVerdict(closed=True, frontier=1)
        return verdict

    (outcome,) = verify.run_verify_suite(
        only=["closure-oracle-equivalence"], classify_impl=corrupted
    )
    assert outcome.status == "fail"
    assert "length 5" in outcome.detail  # concrete counterexample named


def test_unknown_check_rejected():
    import pytest

    with pytest.raises(ValueError):
        verify.run_verify_suite(only=["no-such-check"])


def test_subset_preserves_registration_order():
    names = ["identity-p-op-cl", "closure-worked-examples"]
    outcomes = verify.run_verify_suite(only=names)
    assert [o.name for o in outcomes] == ["closure-worked-examples", "identity-p-op-cl"]
