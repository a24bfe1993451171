"""Fault injection, output checks and per-layer figures of the workflow fan-out.

The checks are those of acceptance criterion 9: every task ends DONE, every
task's transition chain is valid, a stage opens only after the previous
stage of its pipeline is done, and no more tasks run at once than the worker
budget. Each task must also have taken exactly the attempts the injected
failures imply.
"""

from __future__ import annotations

import hashlib

from anensolar.workflow import ExecutionBackend, Pipeline, RunState, Stage, Task, TaskState, Workflow

VALID_NEXT = {
    TaskState.PENDING: {TaskState.SCHEDULED},
    TaskState.SCHEDULED: {TaskState.RUNNING},
    TaskState.RUNNING: {TaskState.DONE, TaskState.FAILED},
    TaskState.FAILED: {TaskState.SCHEDULED},
    TaskState.DONE: set(),
}


def would_fail(seed: int, task_id: str, attempt: int, fail_rate: float) -> bool:
    """Attempt ``attempt`` of a task fails when sha256(seed:task:attempt) falls
    below ``fail_rate``."""
    digest = hashlib.sha256(f"{seed}:{task_id}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64 < fail_rate


def expected_attempts(seed: int, task: Task, fail_rate: float) -> int:
    attempt = 0
    while would_fail(seed, task.id, attempt, fail_rate) and attempt <= task.max_retries:
        attempt += 1
    return attempt + 1


class ChaosBackend(ExecutionBackend):
    """In-process backend: a task's exit code is a pure function of the seed,
    its id and its attempt number."""

    def __init__(self, seed: int, fail_rate: float):
        self.seed = seed
        self.fail_rate = fail_rate

    def run(self, task: Task) -> int:
        return 1 if would_fail(self.seed, task.id, task.attempts, self.fail_rate) else 0


def fresh_copy(wf: Workflow) -> Workflow:
    """The same workflow with every task back in PENDING."""
    return Workflow([
        Pipeline(p.id, [
            Stage(s.id, [Task(t.id, t.argv, t.cores, t.max_retries) for t in s.tasks])
            for s in p.stages
        ])
        for p in wf.pipelines
    ], wf.worker_budget)


def check(wf: Workflow, final: RunState, states: dict, records, seed: int, fail_rate: float) -> dict:
    """Count the tasks that did not end as they must; return {tasks, done, failed, problems}."""
    bad = set()
    problems = []
    if final is not RunState.DONE:
        problems.append(f"run ended {final.value}")
    chains = {}
    for r in sorted(records, key=lambda r: r.seq):
        chains.setdefault(r.task_id, []).append(r)
    tasks = [t for p in wf.pipelines for s in p.stages for t in s.tasks]
    for task in tasks:
        current = TaskState.PENDING
        for r in chains.get(task.id, []):
            if r.from_state is not current or r.to_state not in VALID_NEXT[current]:
                bad.add(task.id)
            current = r.to_state
        if current is not TaskState.DONE or states[task.id] is not TaskState.DONE:
            bad.add(task.id)
        if task.attempts != expected_attempts(seed, task, fail_rate):
            bad.add(task.id)
    seq = {}
    for r in records:
        seq.setdefault((r.task_id, r.to_state), []).append(r.seq)
    for pipe in wf.pipelines:
        for prev, stage in zip(pipe.stages, pipe.stages[1:]):
            prev_end = max(max(seq.get((t.id, TaskState.DONE), [0])) for t in prev.tasks)
            opened = min(min(seq.get((t.id, TaskState.SCHEDULED), [0])) for t in stage.tasks)
            if opened <= prev_end:
                bad.update(t.id for t in stage.tasks)
                problems.append(f"stage {stage.id} opened before {prev.id} was done")
    running = set()
    overruns = 0
    for r in sorted(records, key=lambda r: r.seq):
        if r.to_state is TaskState.RUNNING:
            running.add(r.task_id)
        elif r.from_state is TaskState.RUNNING:
            running.discard(r.task_id)
        if len(running) > wf.worker_budget:
            overruns += 1
    if overruns:
        problems.append(f"worker budget exceeded at {overruns} transitions")
    if bad:
        problems.append(f"{len(bad)} tasks did not end as required")
    return {"tasks": len(tasks), "done": sum(s is TaskState.DONE for s in states.values()),
            "failed": len(bad) + overruns, "problems": problems}


def layer_stats(wf: Workflow, records, wall0: float, wall1: float) -> dict:
    """Per-layer figures of one run, all taken from its event log."""
    stage_of = {}
    previous = {}
    for pipe in wf.pipelines:
        for k, stage in enumerate(pipe.stages):
            stage_of.update((t.id, stage.id) for t in stage.tasks)
            if k:
                previous[stage.id] = pipe.stages[k - 1].id
    ordered = sorted(records, key=lambda r: r.seq)
    attempts = sum(r.from_state is TaskState.RUNNING and r.to_state in (TaskState.DONE, TaskState.FAILED)
                   for r in ordered)
    retries = sum(r.from_state is TaskState.FAILED and r.to_state is TaskState.SCHEDULED for r in ordered)
    done = sum(r.to_state is TaskState.DONE for r in ordered)
    queue_wait = []
    busy = 0.0
    scheduled_at = {}
    running_at = {}
    first_scheduled = {}
    last_done = {}
    for r in ordered:
        stage = stage_of[r.task_id]
        if r.to_state is TaskState.SCHEDULED:
            scheduled_at[r.task_id] = r.timestamp
            first_scheduled.setdefault(stage, r.timestamp)
        elif r.to_state is TaskState.RUNNING:
            queue_wait.append(1000.0 * (r.timestamp - scheduled_at[r.task_id]))
            running_at[r.task_id] = r.timestamp
        elif r.from_state is TaskState.RUNNING:
            busy += r.timestamp - running_at.pop(r.task_id)
        if r.to_state is TaskState.DONE:
            last_done[stage] = r.timestamp
    stage_gap = []
    for stage, opened in first_scheduled.items():
        if stage in previous:
            stage_gap.append(1000.0 * (opened - last_done[previous[stage]]))
    return {
        "attempts": attempts,
        "retries": retries,
        "useful_ratio": done / attempts if attempts else 0.0,
        "queue_wait_ms": queue_wait,
        "stage_gap_ms": stage_gap,
        "busy_share": busy / ((wall1 - wall0) * wf.worker_budget),
    }
