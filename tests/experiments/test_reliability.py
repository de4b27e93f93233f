"""Tests for the payload-level reliability campaigns."""

from repro.core import (
    NonUniformPolicy,
    UniformEccPolicy,
    UniformParityPolicy,
)
from repro.core.policy import RecoveryAction
from repro.experiments import (
    ReliabilityConfig,
    compare_policies,
    reliability_campaign,
)

FAST = ReliabilityConfig(n_lines=16, n_events=2500, seed=1)


class TestCampaignMechanics:
    def test_reads_and_faults_counted(self):
        res = reliability_campaign(NonUniformPolicy(), FAST)
        assert res.reads > 0
        assert res.faults_injected > 0
        assert sum(res.by_action.values()) == res.reads

    def test_deterministic(self):
        a = reliability_campaign(NonUniformPolicy(), FAST)
        b = reliability_campaign(NonUniformPolicy(), FAST)
        assert a.by_action == b.by_action

    def test_no_faults_means_all_clean(self):
        cfg = ReliabilityConfig(n_lines=8, n_events=1000,
                                fault_rate=0.0, seed=2)
        res = reliability_campaign(UniformEccPolicy(), cfg)
        assert res.by_action == {RecoveryAction.CLEAN_READ: res.reads}
        assert res.unrecovered_rate == 0.0


class TestPolicyOrdering:
    """The reliability hierarchy the paper's argument rests on."""

    def test_parity_only_loses_dirty_data(self):
        res = compare_policies(
            [UniformParityPolicy(), NonUniformPolicy()], FAST
        )
        parity = res["uniform-parity"]
        ours = res["non-uniform"]
        assert parity.rate(RecoveryAction.DATA_LOSS) > ours.rate(
            RecoveryAction.DATA_LOSS
        )

    def test_non_uniform_close_to_uniform_ecc(self):
        """The paper's scheme must track the conventional design closely."""
        res = compare_policies(
            [UniformEccPolicy(), NonUniformPolicy()],
            ReliabilityConfig(n_lines=32, n_events=8000, seed=3),
        )
        ecc = res["uniform-ecc"].unrecovered_rate
        ours = res["non-uniform"].unrecovered_rate
        assert ours <= ecc * 1.5 + 0.02

    def test_non_uniform_refetches_clean_lines(self):
        res = reliability_campaign(NonUniformPolicy(), FAST)
        assert res.rate(RecoveryAction.REFETCHED) > 0

    def test_uniform_ecc_never_refetches(self):
        res = reliability_campaign(UniformEccPolicy(), FAST)
        assert res.rate(RecoveryAction.REFETCHED) == 0.0
