"""Chaos scenarios: the serve + online + store stack under injected faults.

:mod:`repro.simulator.drift` answers "does the lifecycle *react* to a
changing workload?"; this module answers "does the stack *survive* an
unreliable substrate while doing so?". A :class:`ChaosScenario` drives a
full in-process deployment — :class:`~repro.serve.ServeApp` over an
:class:`~repro.online.OnlineSession` over a real on-disk
:class:`~repro.core.persistence.ModelStore` — through a drift stream twice
with one seed: once clean, once under a deterministic
:class:`~repro.resilience.FaultPlan` covering every named injection point.
All faults are ``max_fires``-capped, so the injected outage *clears*, and
the report asserts the resilience contract end-to-end:

- every error response is structured JSON (no unstructured 500s leak out);
- injected refresh failures quarantine the group, and the half-open probe
  on a later drift flag recovers it;
- injected ``LockTimeout`` s are absorbed transparently by the store's
  retry policy;
- once the faults clear, a reconciling refresh converges both runs to
  **bit-identical** predictions — chaos leaves no residue in the model.

Run one::

    from repro.simulator.chaos import ChaosScenario

    report = ChaosScenario(seed=0).run()
    assert report.passed, report.failures

or from the command line: ``repro-bellamy experiment chaos``.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.resilience import (
    SITE_EXECUTOR_TASK,
    SITE_FLEET_WORKER,
    SITE_ONLINE_REFRESH,
    SITE_SERVE_PREDICT,
    SITE_STORE_COMMIT,
    SITE_STORE_INDEX,
    SITE_STORE_LOCK,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.runtime.locks import LockTimeout
from repro.simulator.drift import DriftScenario, DriftSpec, generate_drift_scenario

if False:  # pragma: no cover - import-time cycle guard, type checkers only
    from repro.online import OnlineSession
    from repro.serve import ServeApp

# The serving stack (repro.api / repro.online / repro.serve) is imported
# lazily inside methods: repro.data pulls in repro.simulator at import
# time, so a module-level import here would be circular.

#: Scale-outs the bit-identity check predicts at after both runs reconcile.
CHAOS_EVAL_SCALEOUTS: Tuple[int, ...] = (2, 4, 8, 12)


def build_fault_plan(
    seed: int = 0,
    refresh_failures: int = 2,
    lock_timeouts: int = 2,
    commit_delays: int = 1,
    index_delays: int = 1,
    predict_errors: int = 2,
    predict_corruptions: int = 1,
    executor_errors: int = 1,
    worker_crashes: int = 0,
) -> FaultPlan:
    """The scenario's deterministic outage: every site, every fault kind.

    Each spec is ``max_fires``-capped so the outage clears mid-run —
    recovery, not mere failure, is what the scenario asserts. Every cap
    must be reachable, or the plan never fully fires: the fault run makes
    one store commit (one refreshed model, a single ``npz`` member), so
    ``commit_delays`` is 1. The ``store.index`` site is stalled
    (``delay``) rather than failed in the default plan — a *raised* index
    fault leaves a committed-but-unindexed artifact, which is the store's
    self-heal contract and is pinned by the backend conformance suite
    instead.

    ``worker_crashes`` arms the ``fleet.worker`` site — a fault fired at
    worker bootstrap, which kills the forked process outright and puts the
    :class:`~repro.serve.FleetSupervisor`'s crash-restart loop under test.
    It defaults to 0 because the in-process :class:`ChaosScenario` never
    forks; the fleet test-suite passes a plan with it armed.

    >>> plan = build_fault_plan(seed=7)
    >>> sorted({spec.site for spec in plan.specs}) == sorted(
    ...     ["executor.task", "online.refresh", "serve.predict",
    ...      "store.commit", "store.index", "store.lock"])
    True
    """
    fleet_specs: Tuple[FaultSpec, ...] = ()
    if worker_crashes:
        fleet_specs = (
            FaultSpec(
                site=SITE_FLEET_WORKER,
                kind="raise",
                max_fires=worker_crashes,
                message="injected worker crash",
            ),
        )
    return FaultPlan(
        seed=seed,
        specs=fleet_specs
        + (
            FaultSpec(
                site=SITE_ONLINE_REFRESH,
                kind="raise",
                max_fires=refresh_failures,
                message="injected refresh outage",
            ),
            FaultSpec(
                site=SITE_STORE_LOCK,
                kind="raise",
                exception=LockTimeout,
                max_fires=lock_timeouts,
                message="injected lock contention",
            ),
            FaultSpec(
                site=SITE_STORE_COMMIT,
                kind="delay",
                delay_s=0.001,
                max_fires=commit_delays,
            ),
            FaultSpec(
                site=SITE_STORE_INDEX,
                kind="delay",
                delay_s=0.001,
                max_fires=index_delays,
            ),
            FaultSpec(
                site=SITE_SERVE_PREDICT,
                kind="raise",
                max_fires=predict_errors,
                message="injected predict failure",
            ),
            FaultSpec(
                site=SITE_SERVE_PREDICT,
                kind="corrupt",
                max_fires=predict_corruptions,
            ),
            FaultSpec(
                site=SITE_EXECUTOR_TASK,
                kind="raise",
                max_fires=executor_errors,
                message="injected task failure",
            ),
        ),
    )


@dataclass(frozen=True)
class ChaosReport:
    """What one :class:`ChaosScenario` run observed and concluded.

    ``failures`` is the list of violated invariants — empty means the
    stack honored the whole resilience contract.

    >>> report = ChaosReport(seed=0, responses=4, status_counts={"200": 4},
    ...     unstructured_500s=0, injected={}, refresh_failures=0,
    ...     quarantines=0, refreshes=1, quarantined_at_end=[],
    ...     recovered=True, executor_fault_seen=True,
    ...     executor_retry_ok=True, bit_identical=True,
    ...     max_abs_delta_s=0.0)
    >>> report.passed
    True
    """

    #: Seed shared by the clean run, the fault run, and the fault plan.
    seed: int
    #: Requests the fault run issued against the app.
    responses: int
    #: HTTP status → count over the fault run.
    status_counts: Dict[str, int]
    #: Error responses (>= 400) whose body was *not* structured JSON with
    #: an ``"error"`` key. The contract demands zero.
    unstructured_500s: int
    #: Injector fire counts per site (``FaultInjector.fired()``).
    injected: Dict[str, int]
    #: ``repro_online_refresh_failures_total`` at end of the fault stream.
    refresh_failures: int
    #: ``repro_online_quarantines_total`` — breaker CLOSED→OPEN trips.
    quarantines: int
    #: Successful refreshes during the fault run's stream phase.
    refreshes: int
    #: Groups still quarantined when the stream ended (should be none).
    quarantined_at_end: List[str]
    #: The quarantined group's half-open probe succeeded mid-stream.
    recovered: bool
    #: The executor fan-out phase saw its injected task failure.
    executor_fault_seen: bool
    #: ...and the retried fan-out matched the fault-free result.
    executor_retry_ok: bool
    #: Post-reconciliation predictions match the clean run bit-for-bit.
    bit_identical: bool
    #: Largest absolute prediction delta between the two runs (seconds).
    max_abs_delta_s: float
    #: Human-readable invariant violations; empty when :attr:`passed`.
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """``True`` when every invariant held."""
        return not self.failures

    def summary(self) -> str:
        """One line per observation, CLI-friendly."""
        lines = [
            f"chaos seed={self.seed}: {'PASS' if self.passed else 'FAIL'}",
            f"  responses={self.responses} statuses={self.status_counts}",
            f"  unstructured_500s={self.unstructured_500s}",
            f"  injected={self.injected}",
            f"  refresh_failures={self.refresh_failures} "
            f"quarantines={self.quarantines} refreshes={self.refreshes} "
            f"recovered={self.recovered}",
            f"  executor: fault_seen={self.executor_fault_seen} "
            f"retry_ok={self.executor_retry_ok}",
            f"  bit_identical={self.bit_identical} "
            f"max_abs_delta_s={self.max_abs_delta_s:.3e}",
        ]
        lines.extend(f"  FAIL: {failure}" for failure in self.failures)
        return "\n".join(lines)


class ChaosScenario:
    """Deterministic end-to-end fault drill over the full serving stack.

    Two runs share one seed and one request script: a *clean* run (no
    injector) and a *fault* run (under :func:`build_fault_plan`). The
    report compares them — see the module docstring for the invariants.

    Training budgets default to the settings the online test-suite flags
    this drift with, so a scenario finishes in seconds::

        report = ChaosScenario(seed=0).run()
        print(report.summary())
    """

    def __init__(
        self,
        seed: int = 0,
        n_stream: int = 12,
        drift: Optional[DriftSpec] = None,
        pretrain_epochs: int = 300,
        finetune_max_epochs: int = 250,
        finetune_patience: int = 120,
        plan: Optional[FaultPlan] = None,
        root: Optional[str] = None,
        store_backend: str = "local_fs",
    ) -> None:
        self.seed = int(seed)
        self.n_stream = int(n_stream)
        self.drift = drift or DriftSpec(kind="step", magnitude=0.9, start=0.0)
        self.pretrain_epochs = int(pretrain_epochs)
        self.finetune_max_epochs = int(finetune_max_epochs)
        self.finetune_patience = int(finetune_patience)
        self.plan = plan or build_fault_plan(seed=self.seed)
        self.root = root
        #: Store backend (``local_fs`` / ``sqlite`` / ``memory``) both
        #: runs persist models on — the invariants are backend-agnostic.
        self.store_backend = store_backend

    # ------------------------------------------------------------------ #
    # Stack construction
    # ------------------------------------------------------------------ #

    def _scenario(self) -> DriftScenario:
        return generate_drift_scenario(self.drift, seed=self.seed, n_stream=self.n_stream)

    def _config(self) -> Any:
        from repro.core.config import BellamyConfig

        return BellamyConfig(seed=self.seed).with_overrides(
            pretrain_epochs=self.pretrain_epochs,
            finetune_max_epochs=self.finetune_max_epochs,
            finetune_patience=self.finetune_patience,
        )

    def _policy(self) -> Any:
        from repro.online import RefreshPolicy

        # quarantine_after=2 so the two injected refresh failures open the
        # breaker; quarantine_reset_s=0 so the very next drift flag is the
        # half-open probe — the recovery path under test.
        return RefreshPolicy(
            min_observations=3,
            window=6,
            refresh_samples=8,
            max_epochs=self.finetune_max_epochs,
            quarantine_after=2,
            quarantine_reset_s=0.0,
        )

    def _build_app(
        self, scenario: DriftScenario, store_root: str
    ) -> Tuple["ServeApp", "OnlineSession"]:
        from repro.api import Session
        from repro.core.persistence import ModelStore
        from repro.data.dataset import ExecutionDataset
        from repro.online import OnlineSession
        from repro.serve import ServeApp

        corpus = ExecutionDataset(list(scenario.history))
        store = ModelStore(store_root, backend=self.store_backend)
        session = Session(corpus, config=self._config(), store=store)
        online = OnlineSession(session, policy=self._policy())
        app = ServeApp(session, online=online, batch_max=8, batch_wait_ms=1.0)
        return app, online

    # ------------------------------------------------------------------ #
    # The scripted workload (identical for the clean and the fault run)
    # ------------------------------------------------------------------ #

    def _drive(
        self,
        scenario: DriftScenario,
        store_root: str,
        injector: Optional[FaultInjector],
        responses: List[Tuple[int, Any]],
    ) -> Tuple[np.ndarray, Dict[str, Any], int]:
        """Run the scripted workload; return (predictions, stats, trips).

        The injector (when given) is active only for the stream phase:
        model warm-up happens before the outage begins (the drill targets
        steady-state serving, not cold-start training) and the reconciling
        refresh after it clears.
        """
        from repro.serve import ServeClient, ServeError

        app, online = self._build_app(scenario, store_root)
        client = ServeClient(app)
        context = scenario.context
        try:
            # Warm the base model outside the fault window.
            client.predict(context, [scenario.stream[0][0]])
            with injector if injector is not None else nullcontext():
                for machines, runtime_s in scenario.stream:
                    for request in (
                        lambda: client.observe(context, machines, runtime_s),
                        lambda: client.predict(context, [machines]),
                    ):
                        try:
                            responses.append((200, request()))
                        except ServeError as error:
                            responses.append((error.status, error.payload))
            # Read the lifecycle verdicts *before* the reconciling refresh
            # below mutates them — recovery must have happened mid-stream.
            stats = online.stats()
            trips = int(online._m_quarantines.value)  # noqa: SLF001
            # The outage has cleared (every fault is max_fires-capped):
            # reconcile with one forced refresh so both runs finish on a
            # model fine-tuned from the same base on the same stream tail.
            online.scan(refresh=True, force=True)
            predictions = np.asarray(
                client.predict(context, list(CHAOS_EVAL_SCALEOUTS)),
                dtype=np.float64,
            )
        finally:
            app.close()
        return predictions, stats, trips

    def _executor_phase(self, injector: FaultInjector) -> Tuple[bool, bool]:
        """Exercise ``executor.task``: fail once, retry, match fault-free."""
        from repro.runtime import SerialExecutor

        items = list(range(6))
        expected = [item * item for item in items]
        executor = SerialExecutor()
        fault_seen = False
        try:
            with injector:
                try:
                    executor.map(lambda item: item * item, items)
                except InjectedFault:
                    fault_seen = True
                # The fault is spent: the retry must succeed and match.
                retried = executor.map(lambda item: item * item, items)
        finally:
            executor.shutdown()
        return fault_seen, list(retried) == expected

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self) -> ChaosReport:
        """Clean run, fault run, executor drill — then judge the contract."""
        scenario = self._scenario()
        injector = FaultInjector(self.plan)

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            base = self.root if self.root is not None else tmp
            clean_responses: List[Tuple[int, Any]] = []
            clean_predictions, _, _ = self._drive(
                scenario, f"{base}/clean", None, clean_responses
            )
            responses: List[Tuple[int, Any]] = []
            faulty_predictions, stats, trips = self._drive(
                scenario, f"{base}/faulty", injector, responses
            )
            fault_seen, retry_ok = self._executor_phase(injector)

        return self._judge(
            injector,
            responses,
            stats,
            trips,
            clean_predictions,
            faulty_predictions,
            fault_seen,
            retry_ok,
        )

    # ------------------------------------------------------------------ #
    # Judgement
    # ------------------------------------------------------------------ #

    def _judge(
        self,
        injector: FaultInjector,
        responses: List[Tuple[int, Any]],
        stats: Dict[str, Any],
        quarantines: int,
        clean_predictions: np.ndarray,
        faulty_predictions: np.ndarray,
        executor_fault_seen: bool,
        executor_retry_ok: bool,
    ) -> ChaosReport:
        status_counts: Dict[str, int] = {}
        unstructured = 0
        for status, body in responses:
            status_counts[str(status)] = status_counts.get(str(status), 0) + 1
            if status >= 400 and not (isinstance(body, dict) and "error" in body):
                unstructured += 1

        injected = injector.fired()
        deltas = np.abs(clean_predictions - faulty_predictions)
        bit_identical = bool(np.array_equal(clean_predictions, faulty_predictions))
        recovered = quarantines >= 1 and not stats["quarantined"]

        failures: List[str] = []
        if unstructured:
            failures.append(f"{unstructured} error responses lacked a structured body")
        if not injector.exhausted():
            failures.append(
                f"fault plan did not fully fire: {self._pending(injector)}"
            )
        if stats["refresh_failures"] < 1:
            failures.append("no injected refresh failure was recorded")
        if quarantines < 1:
            failures.append("refresh failures never quarantined the group")
        if stats["quarantined"]:
            failures.append(f"groups still quarantined at end: {stats['quarantined']}")
        if stats["refreshes"] < 1:
            failures.append("no refresh converged during the fault run")
        if not executor_fault_seen:
            failures.append("executor.task fault never fired in the fan-out phase")
        if not executor_retry_ok:
            failures.append("executor fan-out retry did not match the clean result")
        if not bit_identical:
            failures.append(
                "post-reconciliation predictions differ from the clean run "
                f"(max |delta| = {float(deltas.max()):.3e}s)"
            )

        return ChaosReport(
            seed=self.seed,
            responses=len(responses),
            status_counts=dict(sorted(status_counts.items())),
            unstructured_500s=unstructured,
            injected=injected,
            refresh_failures=int(stats["refresh_failures"]),
            quarantines=quarantines,
            refreshes=int(stats["refreshes"]),
            quarantined_at_end=list(stats["quarantined"]),
            recovered=recovered,
            executor_fault_seen=executor_fault_seen,
            executor_retry_ok=executor_retry_ok,
            bit_identical=bit_identical,
            max_abs_delta_s=float(deltas.max()) if deltas.size else 0.0,
            failures=failures,
        )

    @staticmethod
    def _pending(injector: FaultInjector) -> List[str]:
        """Capped specs that never burned their budget (diagnostics)."""
        pending: List[str] = []
        for site, specs in injector._specs.items():  # noqa: SLF001
            state = injector._state[site]  # noqa: SLF001
            for index, spec in specs:
                if spec.max_fires is not None and state.fires[index] < spec.max_fires:
                    pending.append(f"{site}/{spec.kind}")
        return sorted(pending)


def run_chaos_scenario(seed: int = 0, **kwargs: Any) -> ChaosReport:
    """Build and run one :class:`ChaosScenario` — the CLI entry point.

    Keyword arguments are forwarded to :class:`ChaosScenario`::

        report = run_chaos_scenario(seed=0, n_stream=12)
        assert report.passed, report.summary()
    """
    return ChaosScenario(seed=seed, **kwargs).run()
