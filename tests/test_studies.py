"""The study runner: content-addressed keys, memoization, disk cache."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.maintenance.costs import CostModel
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import Instrumentation
from repro.rareevent import RareEventConfig
from repro.simulation.montecarlo import MonteCarlo
from repro.studies import (
    CODE_SALT,
    DiskCache,
    StudyKey,
    StudyRequest,
    StudyRunner,
    canonical,
    current_runner,
    get_runner,
    use_runner,
)
from repro.studies.key import strategy_signature


@pytest.fixture
def request_for(maintained_tree, inspection_strategy):
    def make(**overrides):
        base = dict(
            tree=maintained_tree,
            strategy=inspection_strategy,
            horizon=10.0,
            seed=7,
            n_runs=30,
        )
        base.update(overrides)
        return StudyRequest(**base)

    return make


# ----------------------------------------------------------------------
# canonical() and keys
# ----------------------------------------------------------------------
def test_canonical_scalars_and_containers():
    assert canonical(None) == "none"
    assert canonical(True) == "true"
    assert canonical(3) == "int:3"
    assert canonical(0.1) == "float:0.1"
    assert canonical([1, 2]) == "[int:1,int:2]"
    # Mapping order must not leak into the key.
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})


def test_canonical_distinguishes_float_bits():
    assert canonical(0.1) != canonical(0.1 + 1e-17) or 0.1 == 0.1 + 1e-17
    assert canonical(1.0) != canonical(1)


def test_canonical_rejects_unknown_objects():
    with pytest.raises(TypeError):
        canonical(object())


def _reference_canonical(obj):
    """canonical() without its exact-type fast paths (the general branches)."""
    import json

    if obj is None:
        return "none"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return f"int:{obj:d}"
    if isinstance(obj, float):
        return f"float:{float(obj)!r}"
    if isinstance(obj, str):
        return f"str:{json.dumps(obj)}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_canonical(item) for item in obj) + "]"
    if isinstance(obj, dict):
        entries = sorted(
            (_reference_canonical(key), _reference_canonical(value))
            for key, value in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in entries) + "}"
    raise TypeError(type(obj).__name__)


class _Text(str):
    pass


def test_canonical_fast_paths_render_the_general_form():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text()
        | st.text().map(_Text)
        | st.floats(allow_nan=False).map(np.float64)
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    )

    @settings(max_examples=300, deadline=None)
    @given(values)
    def check(value):
        assert canonical(value) == _reference_canonical(value)

    check()


def test_study_key_digests_pinned():
    """Digests of the benchmark's studies, recorded before the fast
    paths of canonical(): the rendering must not change a single byte."""
    from repro.eijoint import build_ei_joint_fmt, current_policy
    from repro.eijoint.parameters import default_cost_model, default_parameters
    from repro.eijoint.strategies import inspection_policy

    service = StudyRequest(
        tree=build_ei_joint_fmt(),
        strategy=current_policy(),
        horizon=10.0,
        cost_model=default_cost_model(),
        seed=11,
        n_runs=2000,
    )
    assert service.key().digest == (
        "8c55126ffbddec875a02a5dd376a6455e6adf14caa3e9b54eb2640d125b950e2"
    )
    assert dataclasses.replace(service, kernel="vectorized").key().digest == (
        "8a4b1eac5cc8a7b197452dccd19775426a85237b895053fc5c82041e4d7c534a"
    )
    parameters = default_parameters()
    grid = StudyRequest(
        tree=build_ei_joint_fmt(parameters),
        strategy=inspection_policy(4.0, parameters=parameters),
        horizon=50.0,
        cost_model=default_cost_model(),
        seed=7,
        n_runs=20000,
        kernel="vectorized",
    )
    assert grid.key().digest == (
        "548ed779d701c56b474433d47da91879904ae07ad56da088fb5fbc2653ffe9c4"
    )


def test_strategy_signature_ignores_cosmetics(inspection_strategy):
    relabeled = dataclasses.replace(
        inspection_strategy, name="other", description="different words"
    )
    assert strategy_signature(inspection_strategy) == strategy_signature(
        relabeled
    )


def test_key_material_includes_code_salt(request_for):
    assert CODE_SALT in request_for().key().material


def test_key_sensitivity(request_for, maintained_tree):
    """Every simulation-relevant knob must change the digest."""
    base = request_for().key().digest
    assert request_for(seed=8).key().digest != base
    assert request_for(horizon=11.0).key().digest != base
    assert request_for(n_runs=31).key().digest != base
    assert request_for(confidence=0.99).key().digest != base
    assert request_for(record_events=True).key().digest != base
    assert request_for(strategy=None).key().digest != base
    assert (
        request_for(cost_model=CostModel(inspection_visit=5.0)).key().digest
        != base
    )
    # Same inputs -> same digest (deterministic across constructions).
    assert request_for().key().digest == base


def test_key_kernel_sensitivity(request_for):
    """The sampling kernel changes results, so it must change the key;
    the material names the kernel always, the default "object" too."""
    base = request_for().key()
    assert request_for(kernel="object").key().digest == base.digest
    assert "kernel" in base.material
    vectorized = request_for(kernel="vectorized").key()
    assert vectorized.digest != base.digest
    assert "kernel" in vectorized.material


def test_request_kernel_builds_matching_simulator(request_for):
    assert request_for().build_simulator().config.kernel == "object"
    simulator = request_for(kernel="vectorized").build_simulator()
    assert simulator.config.kernel == "vectorized"


def test_derived_artifact_keys_differ(request_for):
    key = request_for().key()
    summary = key.derive("summary", None)
    curve_a = key.derive("reliability_curve", {"grid": [1.0, 2.0]})
    curve_b = key.derive("reliability_curve", {"grid": [1.0, 3.0]})
    assert len({key.digest, summary.digest, curve_a.digest, curve_b.digest}) == 4


def test_request_validation(maintained_tree):
    with pytest.raises(ValidationError):
        StudyRequest(tree=maintained_tree, n_runs=0)
    with pytest.raises(ValidationError):
        StudyRequest(tree=maintained_tree, horizon=0.0)


# ----------------------------------------------------------------------
# Memoization (one invocation)
# ----------------------------------------------------------------------
def test_summary_bit_identical_to_direct_montecarlo(request_for, maintained_tree, inspection_strategy):
    runner = StudyRunner()
    summary = runner.summary(request_for())
    direct = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=10.0, seed=7
    ).run(30)
    assert summary == direct.summary


def test_memo_dedupes_identical_requests(request_for):
    instr = Instrumentation()
    runner = StudyRunner(instrumentation=instr)
    first = runner.summary(request_for())
    second = runner.summary(request_for())
    assert first is second
    counters = instr.registry.counter
    assert counters("study.requests").value == 2
    assert counters("study.memo_hits").value == 1
    assert counters("study.misses").value == 1
    assert counters("study.fresh_trajectories").value == 30


def test_memo_dedupes_relabeled_strategy(request_for, inspection_strategy):
    relabeled = dataclasses.replace(inspection_strategy, name="alias")
    runner = StudyRunner()
    assert runner.summary(request_for()) is runner.summary(
        request_for(strategy=relabeled)
    )


def test_curve_populates_summary_artifact(request_for):
    instr = Instrumentation()
    runner = StudyRunner(instrumentation=instr)
    times, intervals = runner.reliability_curve(request_for(), [2.0, 5.0])
    assert list(times) == [2.0, 5.0]
    assert len(intervals) == 2
    # The curve's simulation also stored the summary: no new trajectories.
    runner.summary(request_for())
    assert instr.registry.counter("study.fresh_trajectories").value == 30
    assert instr.registry.counter("study.memo_hits").value == 1


def test_curve_matches_direct_run(request_for, maintained_tree, inspection_strategy):
    runner = StudyRunner()
    _, intervals = runner.reliability_curve(request_for(), [2.0, 5.0])
    direct = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=10.0, seed=7
    ).run(30, keep_trajectories=True)
    _, expected = direct.reliability_at([2.0, 5.0])
    assert intervals == list(expected)


def test_statistic_artifact_cached_by_name_and_version(request_for):
    calls = []

    def reducer(trajectories):
        calls.append(len(trajectories))
        return sum(t.n_failures for t in trajectories)

    runner = StudyRunner()
    request = request_for(record_events=True)
    first = runner.statistic(request, "failures", reducer)
    second = runner.statistic(request, "failures", reducer)
    assert first == second
    assert len(calls) == 1
    runner.statistic(request, "failures", reducer, version="2")
    assert len(calls) == 2


def test_rare_event_cached(request_for):
    config = RareEventConfig(
        method="fixed_effort", thresholds=(0.5,), effort=20, n_replications=2
    )
    instr = Instrumentation()
    runner = StudyRunner(instrumentation=instr)
    request = request_for(n_runs=1)
    first = runner.rare_event(request, config)
    second = runner.rare_event(request, config)
    assert first is second
    assert instr.registry.counter("study.memo_hits").value == 1
    # A different splitting configuration is a different artifact.
    other = runner.rare_event(
        request, dataclasses.replace(config, effort=21)
    )
    assert other is not first


def test_rare_event_matches_direct_run(request_for, maintained_tree, inspection_strategy):
    config = RareEventConfig(
        method="fixed_effort", thresholds=(0.5,), effort=20, n_replications=2
    )
    runner = StudyRunner()
    cached = runner.rare_event(request_for(n_runs=1), config)
    direct = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=10.0, seed=7
    ).run_rare_event(config, confidence=0.95)
    assert cached.unreliability == direct.unreliability


def test_memo_eviction_counter(request_for):
    instr = Instrumentation()
    runner = StudyRunner(max_memo_entries=2, instrumentation=instr)
    for seed in range(4):
        runner.summary(request_for(seed=seed))
    assert len(runner._memo) == 2
    assert instr.registry.counter("study.memo_evictions").value == 2


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
def test_disk_cache_roundtrip_bit_identical(tmp_path, request_for):
    warm = StudyRunner(cache_dir=str(tmp_path))
    fresh_summary = warm.summary(request_for())

    cold = StudyRunner(cache_dir=str(tmp_path))
    instr = Instrumentation()
    cold.instrumentation = instr
    cached_summary = cold.summary(request_for())
    assert cached_summary == fresh_summary
    assert instr.registry.counter("study.disk_hits").value == 1
    assert instr.registry.counter("study.fresh_trajectories").value == 0


def test_disk_cache_bit_identical_via_parallel_path(tmp_path, request_for, maintained_tree, inspection_strategy):
    """A cache entry written by a pooled run equals the serial result."""
    parallel = StudyRunner(
        cache_dir=str(tmp_path), processes=2, parallel_threshold=10
    )
    try:
        pooled = parallel.summary(request_for())
    finally:
        parallel.close()
    serial = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=10.0, seed=7
    ).run(30)
    assert pooled == serial.summary

    reader = StudyRunner(cache_dir=str(tmp_path))
    assert reader.summary(request_for()) == serial.summary


def test_disk_cache_key_sensitivity(tmp_path, request_for):
    runner = StudyRunner(cache_dir=str(tmp_path))
    runner.summary(request_for())
    instr = Instrumentation()
    runner.instrumentation = instr
    runner.summary(request_for(seed=99))
    runner.summary(request_for(horizon=12.0))
    assert instr.registry.counter("study.misses").value == 2
    assert instr.registry.counter("study.disk_hits").value == 0


def test_corrupt_cache_file_recomputed(tmp_path, request_for):
    runner = StudyRunner(cache_dir=str(tmp_path))
    expected = runner.summary(request_for())
    path = runner.disk.path_for(request_for().key().derive("summary", None))
    assert path.exists()
    path.write_bytes(b"not a pickle")

    instr = Instrumentation()
    recovered = StudyRunner(cache_dir=str(tmp_path), instrumentation=instr)
    assert recovered.summary(request_for()) == expected
    assert instr.registry.counter("study.disk_corrupt").value == 1
    assert instr.registry.counter("study.misses").value == 1
    # The recomputation healed the entry on disk.
    healed = StudyRunner(cache_dir=str(tmp_path), instrumentation=Instrumentation())
    assert healed.summary(request_for()) == expected
    assert healed.instrumentation.registry.counter("study.disk_hits").value == 1


def test_material_mismatch_treated_as_corrupt(tmp_path, request_for):
    """A file that unpickles fine but holds other material is a miss."""
    cache = DiskCache(tmp_path)
    key = request_for().key().derive("summary", None)
    impostor = {"format": 1, "material": "something else", "value": 42}
    cache.path_for(key).write_bytes(pickle.dumps(impostor))
    hit, value, corrupt = cache.load(key)
    assert not hit
    assert corrupt


def test_missing_entry_is_clean_miss(tmp_path, request_for):
    cache = DiskCache(tmp_path)
    hit, value, corrupt = cache.load(request_for().key())
    assert not hit
    assert not corrupt


def test_no_cache_dir_means_no_disk_io(tmp_path, request_for):
    runner = StudyRunner()
    runner.summary(request_for())
    assert runner.disk is None
    assert list(tmp_path.iterdir()) == []


def test_salt_change_invalidates_entries(tmp_path, request_for, monkeypatch):
    runner = StudyRunner(cache_dir=str(tmp_path))
    runner.summary(request_for())

    import repro.studies.key as key_module

    monkeypatch.setattr(key_module, "CODE_SALT", CODE_SALT + "/next")
    instr = Instrumentation()
    bumped = StudyRunner(cache_dir=str(tmp_path), instrumentation=instr)
    bumped.summary(request_for())
    assert instr.registry.counter("study.disk_hits").value == 0
    assert instr.registry.counter("study.misses").value == 1


# ----------------------------------------------------------------------
# Ambient runner
# ----------------------------------------------------------------------
def test_use_runner_scopes_ambient():
    assert current_runner() is None
    runner = StudyRunner()
    with use_runner(runner):
        assert current_runner() is runner
        assert get_runner() is runner
    assert current_runner() is None


def test_get_runner_falls_back_to_default():
    fallback = get_runner()
    assert isinstance(fallback, StudyRunner)
    assert fallback.disk is None
    assert get_runner() is fallback


def test_runner_validation():
    with pytest.raises(ValidationError):
        StudyRunner(processes=0)
    with pytest.raises(ValidationError):
        StudyRunner(parallel_threshold=0)
    with pytest.raises(ValidationError):
        StudyRunner(max_memo_entries=0)


def test_experiments_share_headline_study(monkeypatch):
    """fig5 and fig6 request the same (model, policy, seed) studies:
    the second experiment must simulate nothing new for the shared
    (uncosted vs costed differ!) — here we just assert the runner is
    actually consulted by the experiment layer."""
    from repro.experiments import fig5_enf
    from repro.experiments.common import ExperimentConfig

    instr = Instrumentation()
    runner = StudyRunner(instrumentation=instr)
    cfg = ExperimentConfig(n_runs=20, horizon=5.0, seed=3)
    with use_runner(runner):
        fig5_enf.run(cfg)
        first_fresh = instr.registry.counter("study.fresh_trajectories").value
        fig5_enf.run(cfg)
    assert first_fresh > 0
    assert (
        instr.registry.counter("study.fresh_trajectories").value
        == first_fresh
    )


def test_study_key_pickles(request_for):
    key = request_for().key()
    assert pickle.loads(pickle.dumps(key)) == key


def test_numpy_scalars_canonicalize(request_for):
    assert canonical(np.float64(2.5)) == canonical(2.5)
    assert canonical(np.int64(3)) == canonical(3)
