"""Deterministic fault injection for the fault-tolerance harness.

Every recovery path in the service layer — worker restarts, job retries,
quarantine, torn cache-log frame skips — exists to
survive failures that are rare and non-deterministic in production.  To
*test* those paths they must be neither: this module lets a
:class:`FaultPlan` fire precisely-targeted faults at named **sites** the
runtime code instruments with :func:`fire`:

``worker_start``
    In a supervised worker, after a job is received but before it runs
    (target ``"<job_id>:<attempt>"``).  A ``crash`` here simulates a
    worker dying mid-job with no work done.
``pre_merge``
    In a supervised worker, after a job computed its outcome but before
    the outcome is reported (same target).  A ``crash`` here simulates a
    worker dying with finished-but-unreported work — the worst crash
    point, because the parent must both detect the death and re-run work
    that actually completed.
``event_put``
    In the worker-side event emitter, before each coalesced put on the
    worker's channel — once per flush, not per event (target
    ``"<job_id>"``).  A ``raise`` here simulates a broken event pipe;
    the emitter degrades to not streaming instead of failing the job.
``l3_append``
    In the parent, after a frame is appended to the L3 cache log (target
    is the log's file name).  A ``truncate`` here simulates the process
    being killed mid-write: it halves that frame only, leaving a torn
    frame for the CRC framing to reject on the next load while the
    frames before and after it still load.

Plans are plain picklable dataclasses so they travel to worker processes
with the rest of the job payload, and firing is counted per site *per
process* — a plan matched by ``nth`` alone would fire in every worker,
so crash faults are normally targeted by ``match`` against the
deterministic ``job_id:attempt`` string instead.

The module is dependency-free and its fast path (no plan installed) is a
single global ``None`` check, so instrumented sites cost nothing in
production.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: the sites the runtime instruments; ``fire`` rejects unknown names so a
#: typo in a plan fails the test that wrote it instead of silently never
#: firing
SITES = ("worker_start", "pre_merge", "event_put", "l3_append")

#: what a matched fault does when it fires
ACTIONS = ("crash", "raise", "truncate", "hang", "freeze")


class FaultInjected(OSError):
    """Raised by ``action="raise"`` faults.

    Subclasses :class:`OSError` deliberately: the recovery paths under
    test guard real I/O failures with ``except OSError``, and an injected
    fault must travel the exact same handler.
    """


@dataclass(frozen=True)
class Fault:
    """One injectable fault: where, what, and when it fires."""

    site: str
    action: str = "crash"
    #: substring match against the site's target string ("" matches all)
    match: str = ""
    #: fire on the nth *matching* arrival at the site (1-based, per process)
    nth: int = 1
    #: how many consecutive matching arrivals fire (after ``nth`` is reached)
    count: int = 1

    def validate(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; sites: {SITES}")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; actions: {ACTIONS}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("fault nth and count must be >= 1")


@dataclass
class FaultPlan:
    """A deterministic set of faults to inject into one run.

    Install via ``ServiceConfig.fault_plan``: the session installs the
    plan in the parent (role ``"parent"``) and ships it to every
    supervised worker (role ``"worker"``).
    """

    faults: List[Fault] = field(default_factory=list)

    def validate(self) -> None:
        for fault in self.faults:
            fault.validate()

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, site: str, action: str = "crash", match: str = "",
               nth: int = 1, count: int = 1) -> "FaultPlan":
        """Convenience constructor for one-fault plans."""
        plan = cls(faults=[Fault(site, action, match, nth, count)])
        plan.validate()
        return plan

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact string (the CI chaos-job surface).

        ``spec`` is ``;``-separated fault clauses, each
        ``site:action[:match[:nth[:count]]]`` — e.g.
        ``"worker_start:crash:job-1#0;l3_append:truncate::1"``.
        ``match`` may use ``#`` in place of ``:`` inside the
        ``job_id:attempt`` target (the clause separator is ``:``).
        """
        faults: List[Fault] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) < 2:
                raise ValueError(f"fault clause {clause!r} needs at least site:action")
            site, action = parts[0], parts[1]
            match = parts[2].replace("#", ":") if len(parts) > 2 else ""
            nth = int(parts[3]) if len(parts) > 3 and parts[3] else 1
            count = int(parts[4]) if len(parts) > 4 and parts[4] else 1
            faults.append(Fault(site, action, match, nth, count))
        plan = cls(faults=faults)
        plan.validate()
        return plan


# ---------------------------------------------------------------------------
# process-local installation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ROLE: str = "parent"
#: per-(site, match) counters of matching arrivals in this process
_COUNTS: Dict[Tuple[str, str], int] = {}
#: targets that fired in this process (observability for tests)
_FIRED: List[Tuple[str, str, str]] = []


def install(plan: Optional[FaultPlan], role: str = "parent") -> None:
    """Activate ``plan`` in this process (``None`` uninstalls).

    Re-installing the *same* plan object keeps the arrival counters — a
    session re-opened in the same process must not re-fire one-shot
    faults — while installing a different plan resets them.
    """
    global _ACTIVE, _ROLE
    if plan is not _ACTIVE:
        _COUNTS.clear()
        _FIRED.clear()
    _ACTIVE = plan
    _ROLE = role


def active() -> Optional[FaultPlan]:
    """The plan currently installed in this process (or None)."""
    return _ACTIVE


def fired() -> List[Tuple[str, str, str]]:
    """(site, action, target) of every fault fired in this process."""
    return list(_FIRED)


def reset() -> None:
    """Uninstall any plan and clear counters (test isolation)."""
    install(None)


def fire(site: str, target: str = "", path=None, offset: int = 0) -> None:
    """Arrival hook the runtime calls at an instrumented site.

    No-op (one global load) when no plan is installed.  When a fault
    matches, its action executes: ``raise`` raises :class:`FaultInjected`
    (an ``OSError``), ``truncate`` halves what the file at ``path``
    holds past ``offset`` (the start of the record just written), ``crash``
    calls ``os._exit`` — but **only in worker role**; in the parent the
    process under test must survive, so crash/hang/freeze degrade to
    :class:`FaultInjected`.
    """
    plan = _ACTIVE
    if plan is None:
        return
    if site not in SITES:
        raise ValueError(f"unknown fault site {site!r}; sites: {SITES}")
    for fault in plan.faults:
        if fault.site != site:
            continue
        if fault.match and fault.match not in target:
            continue
        key = (site, fault.match)
        arrival = _COUNTS.get(key, 0) + 1
        _COUNTS[key] = arrival
        if fault.nth <= arrival < fault.nth + fault.count:
            _FIRED.append((site, fault.action, target))
            _execute(fault, target, path, offset)


def _execute(fault: Fault, target: str, path, offset: int) -> None:
    action = fault.action
    if action == "truncate" and path is not None:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(offset + max(1, (size - offset) // 2))
        return
    if action == "raise" or _ROLE != "worker":
        # crash/hang/freeze must never take down the parent (that is the
        # process whose survival is under test): degrade to an injected
        # OSError which the site's recovery handler observes instead
        raise FaultInjected(
            f"injected fault at {fault.site} (action={action}, target={target!r})"
        )
    if action == "crash":
        # give the mp-queue feeder threads a beat to finish writing any
        # already-buffered frames: a frame torn mid-write would wedge the
        # parent's reader on a partial message, which is a different
        # failure than the abrupt-death one this action injects
        import time

        time.sleep(0.05)
        os._exit(170)  # simulate SIGKILL/OOM: no cleanup, no final flush
    if action == "hang":
        import time

        time.sleep(3600)  # main thread hangs; heartbeats keep flowing
        return
    if action == "freeze":
        import signal

        os.kill(os.getpid(), signal.SIGSTOP)  # whole process stops beating
        return
