import hashlib
import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import yaml

import anensolar
from anensolar import workflow
from anensolar.errors import BackendUnavailableError, WorkflowValidationError
from anensolar.weights import enumerate_weights
from anensolar.workflow import (
    ExecutionBackend,
    LocalProcessBackend,
    Pipeline,
    RunState,
    Stage,
    Task,
    TaskState,
    Workflow,
    build_simulation_workflow,
    build_weight_search_workflow,
    dump_workflow_file,
    load_workflow_file,
    read_event_log,
    submit,
    validate_workflow,
    write_event_log,
)

# -- test backends ---------------------------------------------------------------

class ExitBackend(ExecutionBackend):
    """Returns a fixed exit code, optionally after a delay."""

    def __init__(self, code=0, delay=0.0):
        self.code = code
        self.delay = delay

    def run(self, task):
        if self.delay:
            time.sleep(self.delay)
        return self.code


class ScriptedBackend(ExecutionBackend):
    """Per-task list of exit codes consumed one execution at a time."""

    def __init__(self, scripts, default=0):
        self.scripts = {k: list(v) for k, v in scripts.items()}
        self.default = default
        self.lock = threading.Lock()

    def run(self, task):
        with self.lock:
            seq = self.scripts.get(task.id)
            if seq:
                return seq.pop(0)
        return self.default


class ChaosBackend(ExecutionBackend):
    """Deterministic pseudo-random failures: the outcome depends only on
    (seed, task id, attempt index), never on scheduling order."""

    def __init__(self, fail_rate, seed):
        self.fail_rate = fail_rate
        self.seed = seed

    def would_fail(self, task_id, attempt):
        digest = hashlib.sha256(f"{self.seed}:{task_id}:{attempt}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < self.fail_rate

    def run(self, task):
        return 1 if self.would_fail(task.id, task.attempts) else 0


class MortalBackend(ExecutionBackend):
    """Blocks executions until killed or canceled; records which tasks began running."""

    def __init__(self, instant=()):
        self.instant = set(instant)
        self.dead = threading.Event()
        self.started = []
        self.lock = threading.Lock()

    def run(self, task):
        with self.lock:
            self.started.append(task.id)
        if task.id in self.instant:
            return 0
        while not self.dead.wait(0.005):
            pass
        raise BackendUnavailableError("runtime torn down")

    def cancel(self, task):
        self.dead.set()


# -- helpers -----------------------------------------------------------------------

STATE_MACHINE = {
    TaskState.PENDING: {TaskState.SCHEDULED, TaskState.CANCELED},
    TaskState.SCHEDULED: {TaskState.RUNNING, TaskState.CANCELED},
    TaskState.RUNNING: {TaskState.DONE, TaskState.FAILED, TaskState.CANCELED},
    TaskState.FAILED: {TaskState.SCHEDULED, TaskState.CANCELED},
}

TERMINAL = {TaskState.DONE, TaskState.CANCELED, TaskState.FAILED}


def validate_chains(records, task_ids):
    """State-machine validator: every task's transition chain must be legal,
    start from PENDING, and end terminal."""
    chains = {tid: [] for tid in task_ids}
    for r in records:
        chains[r.task_id].append(r)
    for tid, chain in chains.items():
        assert chain, f"task {tid} has no transitions"
        current = TaskState.PENDING
        for r in chain:
            assert r.from_state is current, f"{tid}: broken chain at {r}"
            assert r.to_state in STATE_MACHINE[current], f"{tid}: illegal {r}"
            current = r.to_state
        assert current in TERMINAL, f"{tid} ended in {current}"
    return chains


def running_episodes(chain):
    return sum(1 for r in chain if r.to_state is TaskState.RUNNING)


def check_budget(records, workflow):
    cores = {t.id: t.cores for p in workflow.pipelines for s in p.stages for t in s.tasks}
    running = set()
    for r in sorted(records, key=lambda r: r.seq):
        if r.to_state is TaskState.RUNNING:
            running.add(r.task_id)
        elif r.from_state is TaskState.RUNNING:
            running.discard(r.task_id)
        assert sum(cores[t] for t in running) <= workflow.worker_budget


def simple_workflow(n_pipelines=1, n_stages=1, n_tasks=1, cores=1, max_retries=3, budget=4):
    pipelines = []
    for p in range(n_pipelines):
        stages = []
        for s in range(n_stages):
            tasks = [
                Task(id=f"p{p}s{s}t{t}", argv=("noop",), cores=cores, max_retries=max_retries)
                for t in range(n_tasks)
            ]
            stages.append(Stage(id=f"p{p}s{s}", tasks=tasks))
        pipelines.append(Pipeline(id=f"p{p}", stages=stages))
    return Workflow(pipelines, budget)


def one_task_workflow(task, budget=2):
    return Workflow([Pipeline("p", [Stage("s", [task])])], budget)


def reused_task_workflow():
    task = Task("t", ("x",))
    return Workflow([Pipeline("p", [Stage("s0", [task]), Stage("s1", [task])])], 2)


def all_task_ids(wf):
    return [t.id for p in wf.pipelines for s in p.stages for t in s.tasks]


# -- validation ----------------------------------------------------------------------

class TestValidation:
    def test_empty_stage_rejected(self):
        wf = Workflow([Pipeline("p", [Stage("s", [])])], 2)
        with pytest.raises(WorkflowValidationError):
            validate_workflow(wf)

    def test_empty_workflow_rejected(self):
        with pytest.raises(WorkflowValidationError):
            validate_workflow(Workflow([], 2))

    def test_duplicate_task_ids_rejected(self):
        wf = Workflow([Pipeline("p", [
            Stage("s0", [Task("t", ("x",))]),
            Stage("s1", [Task("t", ("x",))]),
        ])], 2)
        with pytest.raises(WorkflowValidationError):
            validate_workflow(wf)

    def test_task_object_reuse_rejected(self):
        task = Task("t", ("x",))
        wf = Workflow([Pipeline("p", [Stage("s0", [task]), Stage("s1", [task])])], 2)
        with pytest.raises(WorkflowValidationError):
            validate_workflow(wf)

    def test_oversized_resource_hint_rejected(self):
        wf = Workflow([Pipeline("p", [Stage("s", [Task("t", ("x",), cores=8)])])], 4)
        with pytest.raises(WorkflowValidationError):
            validate_workflow(wf)

    def test_budget_positive(self):
        wf = simple_workflow()
        wf.worker_budget = 0
        with pytest.raises(WorkflowValidationError):
            validate_workflow(wf)

    @pytest.mark.parametrize("task_id", ["a b", "", "a\tb", "trailing\n"])
    def test_task_id_the_event_log_cannot_store_rejected(self, task_id):
        # write_event_log/read_event_log split each line on whitespace
        wf = Workflow([Pipeline("p", [Stage("s", [Task(task_id, ("x",))])])], 2)
        with pytest.raises(WorkflowValidationError, match="whitespace"):
            validate_workflow(wf)

    @pytest.mark.parametrize("shape, message", [
        (lambda: Workflow([], 2), "no pipelines"),
        (lambda: Workflow([Pipeline("p", [Stage("s", [])])], 2), "is empty"),
        (lambda: Workflow([Pipeline("p0", [Stage("s", [Task("t", ("x",))])]),
                           Pipeline("p1", [Stage("s", [Task("t", ("x",))])])], 2), "not unique"),
        (reused_task_workflow, "object reused"),
        (lambda: one_task_workflow(Task("t", ("x",), cores=3)), "budget is 2"),
        (lambda: one_task_workflow(Task("t", ("x",), state=TaskState.DONE)), "not PENDING"),
        (lambda: one_task_workflow(Task("a b", ("x",))), "whitespace"),
    ], ids=["no-pipelines", "empty-stage", "duplicate-id-across-pipelines", "reused-task",
            "cores-over-budget", "not-pending", "whitespace-id"])
    def test_submit_refuses_as_validation_does_and_starts_no_thread(self, shape, message):
        with pytest.raises(WorkflowValidationError, match=message) as validated:
            validate_workflow(shape())
        threads = threading.active_count()
        with pytest.raises(WorkflowValidationError) as submitted:
            submit(shape(), ExitBackend(0))
        assert str(submitted.value) == str(validated.value)
        assert threading.active_count() == threads


# -- execution ------------------------------------------------------------------------

class TestExecution:
    def test_single_echo_task_done(self):
        wf = Workflow([Pipeline("p", [Stage("s", [Task("hello", ("echo", "hello"))])])], 2)
        run = submit(wf, LocalProcessBackend())
        assert run.wait(30) is RunState.DONE
        assert run.task_states()["hello"] is TaskState.DONE

    def test_nonzero_exit_exhausts_retries(self):
        wf = Workflow([Pipeline("p", [Stage("s", [Task("bad", ("sh", "-c", "exit 3"), max_retries=1)])])], 2)
        run = submit(wf, LocalProcessBackend())
        assert run.wait(30) is RunState.FAILED
        task = wf.pipelines[0].stages[0].tasks[0]
        assert task.state is TaskState.FAILED
        assert task.attempts == 2

    def test_done_chain_in_order(self):
        wf = simple_workflow()
        run = submit(wf, ExitBackend(0))
        run.wait(30)
        records = run.events()
        chain = [(r.from_state, r.to_state) for r in records if r.task_id == "p0s0t0"]
        assert chain == [
            (TaskState.PENDING, TaskState.SCHEDULED),
            (TaskState.SCHEDULED, TaskState.RUNNING),
            (TaskState.RUNNING, TaskState.DONE),
        ]

    def test_stage_ordering_never_violated(self):
        wf = simple_workflow(n_pipelines=2, n_stages=2, n_tasks=3, budget=3)
        run = submit(wf, ExitBackend(0, delay=0.01))
        assert run.wait(60) is RunState.DONE
        records = run.events()
        for p in range(2):
            first_terminal = max(r.seq for r in records
                                 if r.task_id.startswith(f"p{p}s0") and r.to_state is TaskState.DONE)
            second_scheduled = min(r.seq for r in records
                                   if r.task_id.startswith(f"p{p}s1") and r.to_state is TaskState.SCHEDULED)
            assert second_scheduled > first_terminal

    def test_retry_then_success(self):
        wf = Workflow([Pipeline("p", [Stage("s", [Task("flaky", ("noop",), max_retries=2)])])], 2)
        run = submit(wf, ScriptedBackend({"flaky": [1, 1, 0]}))
        assert run.wait(30) is RunState.DONE
        task = wf.pipelines[0].stages[0].tasks[0]
        assert task.attempts == 3
        chain = [r for r in run.events() if r.task_id == "flaky"]
        states = [r.to_state for r in chain]
        assert states == [
            TaskState.SCHEDULED, TaskState.RUNNING, TaskState.FAILED,
            TaskState.SCHEDULED, TaskState.RUNNING, TaskState.FAILED,
            TaskState.SCHEDULED, TaskState.RUNNING, TaskState.DONE,
        ]

    def test_always_failing_ends_failed_with_attempts(self):
        wf = Workflow([Pipeline("p", [Stage("s", [Task("dead", ("noop",), max_retries=1)])])], 2)
        run = submit(wf, ExitBackend(1))
        assert run.wait(30) is RunState.FAILED
        task = wf.pipelines[0].stages[0].tasks[0]
        assert task.state is TaskState.FAILED
        assert task.attempts == 2

    def test_a_backend_that_raises_fails_the_attempt_and_is_retried(self):
        # any error but BackendUnavailableError is the task's failure: the
        # attempt counts and the task is retried up to max_retries
        class RaisingBackend(ExecutionBackend):
            calls = 0

            def run(self, task):
                type(self).calls += 1
                raise RuntimeError("backend bug")

        wf = Workflow([Pipeline("p", [Stage("s", [Task("raises", ("noop",), max_retries=2)])])], 2)
        run = submit(wf, RaisingBackend())
        assert run.wait(30) is RunState.FAILED
        task = wf.pipelines[0].stages[0].tasks[0]
        assert task.state is TaskState.FAILED
        assert task.attempts == 3 and RaisingBackend.calls == 3
        assert [(r.from_state, r.to_state) for r in run.events() if r.task_id == "raises"] == [
            (TaskState.PENDING, TaskState.SCHEDULED), (TaskState.SCHEDULED, TaskState.RUNNING),
            (TaskState.RUNNING, TaskState.FAILED),
            *[(TaskState.FAILED, TaskState.SCHEDULED), (TaskState.SCHEDULED, TaskState.RUNNING),
              (TaskState.RUNNING, TaskState.FAILED)] * 2,
        ]

    def test_an_exit_code_that_is_not_an_int_fails_the_attempt(self):
        # counted as exit code 1, as a backend that raises is
        wf = Workflow([Pipeline("p", [Stage("s", [Task("none", ("noop",), max_retries=1)])])], 2)
        run = submit(wf, ExitBackend(None))
        assert run.wait(10) is RunState.FAILED
        task = wf.pipelines[0].stages[0].tasks[0]
        assert task.state is TaskState.FAILED and task.attempts == 2

    def test_makespan_lower_bound(self):
        # 2 pipelines x 2 stages x 4 unit tasks of 50 ms under budget 2
        wf = simple_workflow(n_pipelines=2, n_stages=2, n_tasks=4, budget=2)
        run = submit(wf, ExitBackend(0, delay=0.05))
        assert run.wait(60) is RunState.DONE
        records = run.events()
        makespan = max(r.timestamp for r in records) - min(r.timestamp for r in records)
        total_work = 16 * 0.05
        assert makespan >= total_work / wf.worker_budget - 1e-3

    def test_budget_invariant(self):
        wf = simple_workflow(n_pipelines=3, n_stages=1, n_tasks=4, cores=2, budget=5)
        run = submit(wf, ExitBackend(0, delay=0.02))
        assert run.wait(60) is RunState.DONE
        check_budget(run.events(), wf)

    def test_cancel_marks_all_non_terminal(self):
        wf = simple_workflow(n_pipelines=1, n_stages=2, n_tasks=2, budget=1)
        backend = MortalBackend()
        run = submit(wf, backend)
        deadline = time.time() + 10
        while not backend.started and time.time() < deadline:
            time.sleep(0.005)
        run.cancel()
        assert run.wait(30) is RunState.CANCELED
        records = run.events()
        chains = validate_chains(records, all_task_ids(wf))
        finals = {tid: chain[-1].to_state for tid, chain in chains.items()}
        assert all(s is TaskState.CANCELED for s in finals.values())

    def test_cancel_while_degraded_with_tasks_scheduled(self, monkeypatch):
        # one worker thread: it loses the backend on t0 while t1 and t2 wait SCHEDULED
        monkeypatch.setattr(workflow, "MAX_POOL_THREADS", 1)
        wf = simple_workflow(n_tasks=3, budget=3)
        backend = MortalBackend()
        backend.dead.set()
        run = submit(wf, backend)
        deadline = time.time() + 10
        while run.state() is not RunState.DEGRADED and time.time() < deadline:
            time.sleep(0.005)
        assert run.state() is RunState.DEGRADED
        assert [s for tid, s in run.task_states().items() if tid != "p0s0t0"] == [TaskState.SCHEDULED] * 2
        canceled_at = len(run.events())
        run.cancel()
        assert run.wait(10) is RunState.CANCELED
        records = run.events()
        chains = validate_chains(records, all_task_ids(wf))
        assert all(chain[-1].to_state is TaskState.CANCELED for chain in chains.values())
        assert all(r.to_state is TaskState.CANCELED for r in records[canceled_at:])
        assert backend.started == ["p0s0t0"]

    def test_workers_start_as_tasks_need_them_and_exit_with_the_run(self):
        class ThreadCountingBackend(ScriptedBackend):
            """Records how many worker threads of its run are alive during each call."""

            prefixes = set()
            alive = []

            def run(self, task):
                prefix = threading.current_thread().name.rsplit("-", 1)[0] + "-"
                self.prefixes.add(prefix)
                self.alive.append(sum(t.name.startswith(prefix) for t in threading.enumerate()))
                time.sleep(0.02)
                return super().run(task)

        wf = simple_workflow(n_tasks=3, budget=64)
        backend = ThreadCountingBackend({"p0s0t1": [1, 1]})  # a retry starts no thread
        run = submit(wf, backend)
        assert run.wait(30) is RunState.DONE
        assert len(backend.alive) == 5 and max(backend.alive) <= 3
        (prefix,) = backend.prefixes
        assert not [t.name for t in threading.enumerate() if t.name.startswith(prefix)]

    def test_cancel_kills_the_running_process_and_joins_the_workers(self, tmp_path):
        pidfile = tmp_path / "pid"
        code = ("import os, sys, time\n"
                "with open(sys.argv[1], 'w') as fh: fh.write(str(os.getpid()))\n"
                "time.sleep(8)\n")
        wf = Workflow([Pipeline("p", [Stage("s", [
            Task("sleeper", (sys.executable, "-c", code, str(pidfile)))])])], 1)
        run = submit(wf, LocalProcessBackend())
        deadline = time.time() + 10
        while not (pidfile.exists() and pidfile.read_text()) and time.time() < deadline:
            time.sleep(0.01)
        pid = int(pidfile.read_text())
        assert run.task_states()["sleeper"] is TaskState.RUNNING
        run.cancel()
        assert run.wait(5) is RunState.CANCELED
        with pytest.raises(ProcessLookupError):  # exited and reaped
            os.kill(pid, 0)
        prefix = f"workflow-{id(run):x}-"
        assert not [t.name for t in threading.enumerate() if t.name.startswith(prefix)]

    def test_a_task_canceled_before_its_process_starts_is_killed_as_it_starts(self):
        task = Task("late", (sys.executable, "-c", "import time; time.sleep(8)"),
                    state=TaskState.CANCELED)
        start = time.monotonic()
        assert LocalProcessBackend().run(task) == -signal.SIGKILL
        assert time.monotonic() - start < 5

    def test_exactly_once_success(self):
        wf = simple_workflow(n_pipelines=2, n_stages=2, n_tasks=3)
        run = submit(wf, ChaosBackend(0.2, seed=41))
        final = run.wait(60)
        records = run.events()
        chains = validate_chains(records, all_task_ids(wf))
        for tid, chain in chains.items():
            episodes = running_episodes(chain)
            failures = sum(1 for r in chain if r.to_state is TaskState.FAILED)
            if chain[-1].to_state is TaskState.DONE:
                assert episodes == failures + 1


class TestDispatchOrder:
    """Dispatch runs in pipeline-major, first-fit order over the
    open stage of every pipeline; a retry keeps its task's place."""

    def test_budget_one_schedule(self):
        wf = simple_workflow(n_pipelines=2, n_stages=2, n_tasks=2, max_retries=1, budget=1)
        # p0s0t0 fails once then succeeds; p1s0t1 fails on both of its attempts
        run = submit(wf, ScriptedBackend({"p0s0t0": [1, 0], "p1s0t1": [1, 1]}))
        assert run.wait(30) is RunState.FAILED
        scheduled = [r.task_id for r in run.events() if r.to_state is TaskState.SCHEDULED]
        assert scheduled == [
            "p0s0t0", "p0s0t0", "p0s0t1",
            "p0s1t0", "p0s1t1",
            "p1s0t0", "p1s0t1", "p1s0t1",
            "p1s1t0", "p1s1t1",
        ]
        assert run.task_states()["p1s0t1"] is TaskState.FAILED
        assert run.task_states()["p1s1t1"] is TaskState.DONE

    def test_first_fit_skips_a_task_that_does_not_fit(self):
        tasks = [Task(f"t{k}", ("noop",), cores=c) for k, c in enumerate([2, 2, 1])]
        wf = Workflow([Pipeline("p", [Stage("s", tasks)])], 3)
        run = submit(wf, ExitBackend(0, delay=0.01))
        assert run.wait(30) is RunState.DONE
        records = run.events()
        # the first pass runs before any worker takes a task: t0 takes 2 of 3 cores, t1 does not fit
        assert [(r.task_id, r.to_state) for r in records[:2]] == [
            ("t0", TaskState.SCHEDULED), ("t2", TaskState.SCHEDULED)]
        assert [r.task_id for r in records if r.to_state is TaskState.SCHEDULED] == ["t0", "t2", "t1"]


class TestBackendLoss:
    def test_only_running_tasks_reexecuted(self):
        tasks = [Task("fast", ("noop",))] + [Task(f"blocked{k}", ("noop",)) for k in range(2)] \
            + [Task(f"queued{k}", ("noop",)) for k in range(2)]
        wf = Workflow([Pipeline("p", [Stage("s", tasks)])], 3)
        backend = MortalBackend(instant=("fast",))
        run = submit(wf, backend)

        deadline = time.time() + 10
        while len(backend.started) < 4 and time.time() < deadline:
            time.sleep(0.005)
        assert len(backend.started) >= 4
        victims = set(backend.started) - {"fast"}
        backend.dead.set()

        deadline = time.time() + 10
        while run.state() is not RunState.DEGRADED and time.time() < deadline:
            time.sleep(0.005)
        assert run.state() is RunState.DEGRADED
        states = run.task_states()
        untouched = {t.id for t in tasks} - set(backend.started)
        for tid in untouched:
            assert states[tid] is TaskState.PENDING  # never dispatched while degraded

        run.restore_backend(ExitBackend(0))
        assert run.wait(30) is RunState.DONE
        chains = validate_chains(run.events(), all_task_ids(wf))
        for tid, chain in chains.items():
            assert chain[-1].to_state is TaskState.DONE
            if tid in victims:
                assert running_episodes(chain) == 2  # re-executed after the loss
            else:
                assert running_episodes(chain) == 1  # completed tasks never re-run
        # a lost execution consumes no retry budget
        for task in tasks:
            assert task.attempts == 1


    def test_a_late_loss_from_a_replaced_backend_leaves_the_run_up(self):
        # "late" is still running on the lost backend when it is restored; its
        # loss, reported after the restore, re-executes it on the new backend
        class LosingBackend(ExecutionBackend):
            def __init__(self):
                self.started, self.late, self.release = set(), threading.Event(), threading.Event()

            def run(self, task):
                self.started.add(task.id)
                if task.id == "late":
                    self.late.set()
                    self.release.wait(10)
                else:
                    self.late.wait(10)  # lost once "late" runs on this backend too
                raise BackendUnavailableError("runtime torn down")

        tasks = [Task("late", ("noop",)), Task("first", ("noop",)), Task("queued", ("noop",))]
        wf = Workflow([Pipeline("p", [Stage("s", tasks), Stage("next", [Task("after", ("noop",))])])], 2)
        old = LosingBackend()
        run = submit(wf, old)
        deadline = time.time() + 10
        while run.state() is not RunState.DEGRADED and time.time() < deadline:
            time.sleep(0.005)
        assert run.state() is RunState.DEGRADED and old.started == {"late", "first"}
        run.restore_backend(ExitBackend(0))
        old.release.set()
        assert run.wait(10) is RunState.DONE
        chains = validate_chains(run.events(), all_task_ids(wf))
        assert running_episodes(chains["late"]) == 2 and running_episodes(chains["first"]) == 2
        assert [task.attempts for task in tasks] == [1, 1, 1]


class TestChaosRun:
    def test_small_chaos_run_terminates_clean(self):
        wf = simple_workflow(n_pipelines=8, n_stages=2, n_tasks=5, budget=6)
        backend = ChaosBackend(0.1, seed=13)
        for tid in all_task_ids(wf):
            assert not all(backend.would_fail(tid, a) for a in range(4))
        run = submit(wf, backend)
        assert run.wait(120) is RunState.DONE
        records = run.events()
        chains = validate_chains(records, all_task_ids(wf))
        assert all(c[-1].to_state is TaskState.DONE for c in chains.values())
        check_budget(records, wf)
        seqs = [r.seq for r in records]
        assert seqs == sorted(seqs)
        times = [r.timestamp for r in records]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_random_shapes_under_forced_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = random.Random(5)
            for seed in range(30):
                budget = rng.choice([1, 2, 3, 7])
                wf = Workflow([
                    Pipeline(f"p{p}", [
                        Stage(f"p{p}s{s}", [Task(f"p{p}s{s}t{t}", ("noop",), cores=rng.randint(1, budget),
                                                 max_retries=rng.randint(0, 2))
                                            for t in range(rng.randint(1, 4))])
                        for s in range(rng.randint(1, 3))])
                    for p in range(rng.randint(1, 5))], budget)
                backend = ChaosBackend(0.3, seed)
                run = submit(wf, backend)
                final = run.wait(60)
                records = run.events()
                chains = validate_chains(records, all_task_ids(wf))
                check_budget(records, wf)
                tasks = [t for p in wf.pipelines for s in p.stages for t in s.tasks]
                for task in tasks:
                    expected = 1
                    while backend.would_fail(task.id, expected - 1) and expected <= task.max_retries:
                        expected += 1
                    assert task.attempts == expected, (seed, task.id)
                    assert running_episodes(chains[task.id]) == expected
                for pipe in wf.pipelines:
                    for prev, stage in zip(pipe.stages, pipe.stages[1:]):
                        settled = max(chains[t.id][-1].seq for t in prev.tasks)
                        opened = min(chains[t.id][0].seq for t in stage.tasks)
                        assert opened > settled, (seed, stage.id)
                failed = any(chains[t.id][-1].to_state is TaskState.FAILED for t in tasks)
                assert final is (RunState.FAILED if failed else RunState.DONE)
        finally:
            sys.setswitchinterval(interval)


class TestBuilders:
    def test_weight_search_shape(self):
        grid = enumerate_weights(4, 1.0 / 3.0)
        assert len(grid) == 20
        wf = build_weight_search_workflow(grid)
        assert len(wf.pipelines) == 20
        for p in wf.pipelines:
            assert len(p.stages) == 3
            assert sum(len(s.tasks) for s in p.stages) == 6
        validate_workflow(wf)

    def test_weight_search_tasks_carry_cli_commands(self):
        grid = enumerate_weights(2, 0.5)
        wf = build_weight_search_workflow(grid)
        weights = ",".join(repr(float(v)) for v in grid.vectors[1])
        for stage, command in zip(wf.pipelines[1].stages, ("anen", "simulate", "verify")):
            flags = ("--weights", weights) if command == "anen" else ()
            assert [t.argv for t in stage.tasks] == [
                ("anensolar", "-o", f"w00001-{s}", command, *flags) for s in ("NN", "RB")]

    def test_simulation_workflow_shape(self):
        partitions = [(f"d{i}", 1.0 + i % 3) for i in range(99)]
        wf = build_simulation_workflow(partitions, ["SP128", "KS20"])
        assert len(wf.pipelines) == 1
        stages = wf.pipelines[0].stages
        assert len(stages) == 2
        assert len(stages[0].tasks) == 99
        assert len(stages[1].tasks) == 99
        validate_workflow(wf)

    def test_simulation_hints_proportional_to_area(self):
        wf = build_simulation_workflow([("a", 1.0), ("b", 3.0), ("c", 6.0)], ["SP128"])
        hints = [t.cores for t in wf.pipelines[0].stages[0].tasks]
        assert hints == [1, 3, 6]

    def test_empty_inputs_rejected(self):
        grid = enumerate_weights(2, 0.5)
        empty = type(grid)(0.5, 2, False, grid.vectors[:0])
        with pytest.raises(WorkflowValidationError):
            build_weight_search_workflow(empty)
        with pytest.raises(WorkflowValidationError):
            build_simulation_workflow([], ["SP128"])
        with pytest.raises(WorkflowValidationError):
            build_simulation_workflow([("a", 1.0)], [])

    def test_builders_pure_same_topology(self):
        grid = enumerate_weights(3, 0.5)
        a = build_weight_search_workflow(grid)
        b = build_weight_search_workflow(grid)
        flat = lambda wf: [(p.id, s.id, t.id, t.argv, t.cores)
                           for p in wf.pipelines for s in p.stages for t in s.tasks]
        assert flat(a) == flat(b)
        parts = [("a", 1.0), ("b", 2.0)]
        assert flat(build_simulation_workflow(parts, ["SP128"])) == \
            flat(build_simulation_workflow(parts, ["SP128"]))


class TestFiles:
    def test_workflow_file_round_trip(self, tmp_path):
        wf = build_simulation_workflow([("a", 1.0), ("b", 2.0)], ["SP128"])
        path = tmp_path / "wf.yaml"
        dump_workflow_file(wf, path)
        back = load_workflow_file(path)
        assert back.worker_budget == wf.worker_budget
        assert [t.id for p in back.pipelines for s in p.stages for t in s.tasks] == all_task_ids(wf)
        assert back.pipelines[0].stages[0].tasks[0].argv == wf.pipelines[0].stages[0].tasks[0].argv

    def test_event_log_round_trip(self, tmp_path):
        wf = simple_workflow(n_tasks=2)
        run = submit(wf, ExitBackend(0))
        run.wait(30)
        records = run.events()
        path = tmp_path / "events.log"
        write_event_log(records, path)
        back = read_event_log(path)
        assert [(r.task_id, r.from_state, r.to_state) for r in back] == \
            [(r.task_id, r.from_state, r.to_state) for r in records]

    def test_event_log_bytes_for_a_fixed_clock(self, tmp_path, monkeypatch):
        # one worker: the order of the transitions is fixed, and so, with a
        # counter for a clock, is every byte of the log
        wf = Workflow([Pipeline("p", [Stage("s0", [Task("t0", ("noop",), max_retries=1),
                                                   Task("t1", ("noop",))]),
                                      Stage("s1", [Task("t2", ("noop",))])])], 1)
        ticks = itertools.count(1)
        monkeypatch.setattr(time, "time", lambda: 1700000000.0 + 0.25 * next(ticks))
        run = submit(wf, ScriptedBackend({"t0": [1, 0]}))
        assert run.wait(10) is RunState.DONE
        monkeypatch.undo()
        path = tmp_path / "events.log"
        write_event_log(run.events(), path)
        assert path.read_text() == (
            "1700000000.25 t0 PENDING SCHEDULED\n"
            "1700000000.5 t0 SCHEDULED RUNNING\n"
            "1700000000.75 t0 RUNNING FAILED\n"
            "1700000001.0 t0 FAILED SCHEDULED\n"
            "1700000001.25 t0 SCHEDULED RUNNING\n"
            "1700000001.5 t0 RUNNING DONE\n"
            "1700000001.75 t1 PENDING SCHEDULED\n"
            "1700000002.0 t1 SCHEDULED RUNNING\n"
            "1700000002.25 t1 RUNNING DONE\n"
            "1700000002.5 t2 PENDING SCHEDULED\n"
            "1700000002.75 t2 SCHEDULED RUNNING\n"
            "1700000003.0 t2 RUNNING DONE\n")
        fields = lambda records: [(r.seq, r.timestamp, r.task_id, r.from_state, r.to_state)
                                  for r in records]
        assert fields(read_event_log(path)) == fields(run.events())

    def test_a_string_command_splits_as_a_shell_would(self, tmp_path):
        path = tmp_path / "wf.yaml"
        path.write_text("pipelines:\n- stages:\n  - tasks:\n"
                        "    - {id: t, command: \"python3 -c 'import sys; sys.exit(3)'\"}\n")
        wf = load_workflow_file(path)
        task = wf.pipelines[0].stages[0].tasks[0]
        assert task.argv == ("python3", "-c", "import sys; sys.exit(3)")
        assert LocalProcessBackend().run(task) == 3
        # written files hold lists, and read back to the same bytes
        dump_workflow_file(wf, tmp_path / "a.yaml")
        written = yaml.safe_load((tmp_path / "a.yaml").read_text())
        assert written["pipelines"][0]["stages"][0]["tasks"][0]["command"] == list(task.argv)
        dump_workflow_file(load_workflow_file(tmp_path / "a.yaml"), tmp_path / "b.yaml")
        assert (tmp_path / "a.yaml").read_bytes() == (tmp_path / "b.yaml").read_bytes()

    def test_a_string_command_with_an_unbalanced_quote_is_refused(self, tmp_path):
        path = tmp_path / "wf.yaml"
        path.write_text("pipelines:\n- stages:\n  - {}\n  - tasks:\n    - {command: x}\n"
                        "    - {command: \"python3 -c 'exit(3)\"}\n")
        with pytest.raises(WorkflowValidationError, match="^pipeline 0 stage 1 task 1: 'command'"):
            load_workflow_file(path)

    def test_bad_workflow_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("just: nonsense\n")
        with pytest.raises(WorkflowValidationError):
            load_workflow_file(path)

    @pytest.mark.parametrize("text", [
        "pipelines: null\n",
        "pipelines: [3]\n",
        "pipelines:\n- stages:\n  - tasks:\n    - {id: t, command: x, cores: two}\n",
    ], ids=["null-pipelines", "pipeline-not-mapping", "cores-not-integer"])
    def test_malformed_workflow_file(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(WorkflowValidationError):
            load_workflow_file(path)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_c_dumper_writes_the_python_dumpers_bytes(self, tmp_path, monkeypatch):
        wf = build_weight_search_workflow(enumerate_weights(3, 0.25))
        dump_workflow_file(wf, tmp_path / "c.yaml")
        monkeypatch.setattr(workflow, "_YAML_DUMPER", yaml.SafeDumper)
        dump_workflow_file(wf, tmp_path / "py.yaml")
        assert (tmp_path / "c.yaml").read_bytes() == (tmp_path / "py.yaml").read_bytes()


def test_import_loads_neither_numpy_nor_hashlib():
    # a process that only dispatches tasks stays small: the file writers
    # import the hashing writer when they run
    src = str(Path(anensolar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = ("import sys, anensolar.workflow\n"
            "loaded = [m for m in ('numpy', 'hashlib') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_exactly_the_nine_allowed_transitions_pass_the_guard():
    # all 36 (from, to) pairs of TaskState: the 9 of the state machine are
    # recorded, every other raises and leaves the log and the task as they were
    allowed = {(a, b) for a, targets in STATE_MACHINE.items() for b in targets}
    assert workflow.ALLOWED_TRANSITIONS == allowed and len(allowed) == 9
    wf = simple_workflow()
    run = submit(wf, ExitBackend(0))
    assert run.wait(10) is RunState.DONE
    passed = 0
    for a in TaskState:
        for b in TaskState:
            task = Task("probe", ["true"], state=a)
            before = run.events()
            with run._cond:
                if (a, b) in allowed:
                    run._record(task, b)
                    passed += 1
                else:
                    with pytest.raises(RuntimeError, match="illegal transition"):
                        run._record(task, b)
            after = run.events()
            if (a, b) in allowed:
                assert after[:-1] == before and task.state is b
                assert (after[-1].task_id, after[-1].from_state, after[-1].to_state) == ("probe", a, b)
            else:
                assert after == before and task.state is a
    assert passed == 9
