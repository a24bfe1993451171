"""Pipeline/stage/task execution engine.

An application is a set of pipelines; each pipeline is an ordered list of
stages; each stage is a set of mutually independent tasks (self-contained
commands with a core-count resource hint). Stages run strictly in order
within a pipeline, pipelines and intra-stage tasks run concurrently under a
global worker budget, and failed tasks are resubmitted up to their retry
limit. All state mutation funnels through a single coordinator thread; the
execution backend is a black box behind ``ExecutionBackend`` so it can be
torn down and brought back, losing only the tasks that were running.

The coordinator builds its scheduling state once and updates it only as
tasks settle, never rescanning the workflow:

- a stage cursor per pipeline (the index of its open stage), and counts of
  non-terminal tasks per stage and for the whole run;
- a sorted ready list of ``(pipeline, stage, task)`` index keys of the
  dispatchable tasks of open stages. Dispatch walks it first-fit, in the
  pipeline-major order a scan of the open stages would take, and stops once
  the reserved cores reach the budget. A retryable failure goes back in at
  its own key; when a stage's count reaches zero the cursor moves on and
  the next stage's tasks enter the list.

The run is done when the run-wide count is zero. Every state change arrives
as a queue message, so the coordinator blocks on the queue between them.

Task state machine::

    PENDING -> SCHEDULED -> RUNNING -> DONE
                                    -> FAILED -> SCHEDULED (retry)
    any non-terminal state -> CANCELED

FAILED is terminal once attempts exceed max_retries; like DONE, it lets the
next stage of its pipeline open (the run then ends FAILED). Completed tasks are
never re-run. A backend loss re-executes only the tasks that were RUNNING,
without consuming their retry budget.
"""

from __future__ import annotations

import bisect
import enum
import queue
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import yaml

from .errors import BackendUnavailableError, WorkflowValidationError


class TaskState(enum.Enum):
    PENDING = "PENDING"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"


TERMINAL_STATES = (TaskState.DONE, TaskState.CANCELED)

ALLOWED_TRANSITIONS = {
    (TaskState.PENDING, TaskState.SCHEDULED),
    (TaskState.PENDING, TaskState.CANCELED),
    (TaskState.SCHEDULED, TaskState.RUNNING),
    (TaskState.SCHEDULED, TaskState.CANCELED),
    (TaskState.RUNNING, TaskState.DONE),
    (TaskState.RUNNING, TaskState.FAILED),
    (TaskState.RUNNING, TaskState.CANCELED),
    (TaskState.FAILED, TaskState.SCHEDULED),
    (TaskState.FAILED, TaskState.CANCELED),
}


class RunState(enum.Enum):
    RUNNING = "RUNNING"
    DEGRADED = "DEGRADED"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"


@dataclass
class Task:
    """One self-contained command with a core-count resource hint."""

    id: str
    argv: tuple
    cores: int = 1
    max_retries: int = 3
    state: TaskState = TaskState.PENDING
    attempts: int = 0

    def __post_init__(self):
        self.argv = tuple(str(a) for a in self.argv)

    def is_terminal(self) -> bool:
        if self.state in TERMINAL_STATES:
            return True
        return self.state is TaskState.FAILED and self.attempts > self.max_retries


def _dispatchable(task: Task) -> bool:
    retryable = task.state is TaskState.FAILED and task.attempts <= task.max_retries
    return task.state is TaskState.PENDING or retryable


@dataclass
class Stage:
    id: str
    tasks: list


@dataclass
class Pipeline:
    id: str
    stages: list


@dataclass
class Workflow:
    pipelines: list
    worker_budget: int = 4


def validate_workflow(workflow: Workflow):
    """Reject structurally invalid workflows before execution."""
    if workflow.worker_budget < 1:
        raise WorkflowValidationError("worker budget must be >= 1")
    if not workflow.pipelines:
        raise WorkflowValidationError("workflow has no pipelines")
    seen_tasks = set()
    seen_pipelines = set()
    for pipe in workflow.pipelines:
        if pipe.id in seen_pipelines:
            raise WorkflowValidationError(f"duplicate pipeline id {pipe.id!r}")
        seen_pipelines.add(pipe.id)
        if not pipe.stages:
            raise WorkflowValidationError(f"pipeline {pipe.id!r} has no stages")
        for stage in pipe.stages:
            if not stage.tasks:
                raise WorkflowValidationError(f"stage {stage.id!r} is empty")
            for task in stage.tasks:
                if str(task.id).split() != [str(task.id)]:
                    # the event log is whitespace-separated text
                    raise WorkflowValidationError(
                        f"task id {task.id!r} is empty or contains whitespace")
                if id(task) in seen_tasks:
                    raise WorkflowValidationError("task object reused in workflow")
                seen_tasks.add(id(task))
                if task.cores < 1:
                    raise WorkflowValidationError(f"task {task.id!r} needs cores >= 1")
                if task.cores > workflow.worker_budget:
                    raise WorkflowValidationError(
                        f"task {task.id!r} needs {task.cores} cores, budget is {workflow.worker_budget}"
                    )
                if task.max_retries < 0:
                    raise WorkflowValidationError(f"task {task.id!r} has negative max_retries")
                if not task.argv:
                    raise WorkflowValidationError(f"task {task.id!r} has an empty command")
                if task.state is not TaskState.PENDING:
                    raise WorkflowValidationError(f"task {task.id!r} is not PENDING")
    ids = [t.id for p in workflow.pipelines for s in p.stages for t in s.tasks]
    if len(set(ids)) != len(ids):
        raise WorkflowValidationError("task ids are not unique (cyclic/reused task)")


class ExecutionBackend:
    """Black-box runtime: executes one task and reports its exit code."""

    def run(self, task: Task) -> int:
        raise NotImplementedError


class LocalProcessBackend(ExecutionBackend):
    """Runs task commands as local subprocesses."""

    def run(self, task: Task) -> int:
        proc = subprocess.run(task.argv, capture_output=True)
        return proc.returncode


@dataclass(frozen=True)
class TransitionRecord:
    seq: int
    timestamp: float
    task_id: str
    from_state: TaskState
    to_state: TaskState


class WorkflowRun:
    """Handle to an asynchronous workflow execution.

    Supports state queries, cancellation, event-log retrieval, and backend
    restoration after a backend loss.
    """

    def __init__(self, workflow: Workflow, backend: ExecutionBackend, pool_size: int | None = None):
        self.workflow = workflow
        self._backend = backend
        self._tasks = {t.id: t for p in workflow.pipelines for s in p.stages for t in s.tasks}
        self._queue: queue.Queue = queue.Queue()
        self._events: list = []
        self._events_lock = threading.Lock()
        self._seq = 0
        self._reserved = 0
        self._in_flight = {}
        self._parked = []
        self._degraded = False
        self._canceled = False
        self._finished = threading.Event()
        self._final_state = RunState.RUNNING
        pipelines = workflow.pipelines
        self._key = {t.id: (p, s, k)
                     for p, pipe in enumerate(pipelines)
                     for s, stage in enumerate(pipe.stages)
                     for k, t in enumerate(stage.tasks)}
        self._stage_left = [[sum(not t.is_terminal() for t in stage.tasks) for stage in pipe.stages]
                            for pipe in pipelines]
        self._left = sum(map(sum, self._stage_left))
        self._cursor = [0] * len(pipelines)
        self._ready = []
        for p in range(len(pipelines)):
            self._open_stage(p)
        size = pool_size or min(workflow.worker_budget, 128)
        self._pool = ThreadPoolExecutor(max_workers=size)
        self._coordinator = threading.Thread(target=self._coordinate, daemon=True)
        self._coordinator.start()

    # -- public handle API ---------------------------------------------------

    def state(self) -> RunState:
        if self._finished.is_set():
            return self._final_state
        return RunState.DEGRADED if self._degraded else RunState.RUNNING

    def task_states(self) -> dict:
        return {tid: t.state for tid, t in self._tasks.items()}

    def events(self) -> list:
        with self._events_lock:
            return list(self._events)

    def cancel(self):
        self._queue.put(("cancel",))

    def restore_backend(self, backend: ExecutionBackend):
        """Bring a (new) backend up after a loss; parked work resumes."""
        self._queue.put(("restore", backend))

    def wait(self, timeout: float | None = None) -> RunState:
        if not self._finished.wait(timeout):
            raise TimeoutError("workflow run still active")
        return self._final_state

    # -- coordinator (single stateful component) ------------------------------

    def _record(self, task: Task, to_state: TaskState):
        pair = (task.state, to_state)
        if pair not in ALLOWED_TRANSITIONS:
            raise RuntimeError(f"illegal transition {pair} for task {task.id}")
        with self._events_lock:
            self._seq += 1
            self._events.append(TransitionRecord(self._seq, time.time(), task.id, task.state, to_state))
        task.state = to_state

    def _open_stage(self, p: int):
        """Move pipeline ``p``'s cursor to its first non-terminal stage and put
        that stage's dispatchable tasks into the ready list."""
        left = self._stage_left[p]
        s = self._cursor[p]
        while s < len(left) and left[s] == 0:
            s += 1
        self._cursor[p] = s
        if s == len(left):
            return
        tasks = self.workflow.pipelines[p].stages[s].tasks
        # no other key of pipeline p is ready, so its keys go where (p,) sorts
        at = bisect.bisect_left(self._ready, (p,))
        self._ready[at:at] = [(p, s, k) for k, t in enumerate(tasks) if _dispatchable(t)]

    def _settle(self, task: Task):
        """Update the scheduling state after ``task`` left RUNNING."""
        key = self._key[task.id]
        if not task.is_terminal():
            bisect.insort(self._ready, key)
            return
        p, s, _ = key
        self._left -= 1
        self._stage_left[p][s] -= 1
        if self._stage_left[p][s] == 0:
            self._open_stage(p)

    def _dispatch_ready(self):
        if self._degraded or self._canceled:
            return
        budget = self.workflow.worker_budget
        pipelines = self.workflow.pipelines
        ready = self._ready
        i = 0
        while i < len(ready) and self._reserved < budget:
            p, s, k = ready[i]
            task = pipelines[p].stages[s].tasks[k]
            if self._reserved + task.cores > budget:
                i += 1
                continue
            del ready[i]
            self._reserved += task.cores
            self._in_flight[task.id] = task
            self._record(task, TaskState.SCHEDULED)
            self._pool.submit(self._execute, task)

    def _execute(self, task: Task):
        if self._degraded:
            self._queue.put(("parked", task))
            return
        self._queue.put(("started", task))
        backend = self._backend
        try:
            code = backend.run(task)
        except BackendUnavailableError as exc:
            self._queue.put(("backend_lost", task, exc))
            return
        except Exception:
            code = 1
        self._queue.put(("finished", task, int(code)))

    def _release(self, task: Task):
        if task.id in self._in_flight:
            del self._in_flight[task.id]
            self._reserved -= task.cores

    def _coordinate(self):
        while True:
            self._dispatch_ready()
            if self._left == 0 and not self._in_flight:
                break
            msg = self._queue.get()
            kind = msg[0]
            if kind == "started":
                task = msg[1]
                if task.state is TaskState.SCHEDULED:
                    self._record(task, TaskState.RUNNING)
            elif kind == "finished":
                _, task, code = msg
                if task.state is not TaskState.RUNNING:
                    continue  # canceled while executing; discard late result
                task.attempts += 1
                self._release(task)
                self._record(task, TaskState.DONE if code == 0 else TaskState.FAILED)
                self._settle(task)
            elif kind == "backend_lost":
                _, task, _exc = msg
                self._degraded = True
                if task.state is TaskState.RUNNING:
                    # no attempt consumed: the runtime failed, not the task
                    self._release(task)
                    self._record(task, TaskState.FAILED)
                    self._settle(task)
            elif kind == "parked":
                if self._degraded:
                    self._parked.append(msg[1])
                else:
                    # backend already restored; resume without a new transition
                    self._pool.submit(self._execute, msg[1])
            elif kind == "restore":
                self._backend = msg[1]
                self._degraded = False
                for task in self._parked:
                    self._pool.submit(self._execute, task)
                self._parked = []
            elif kind == "cancel":
                self._canceled = True
                for task in self._tasks.values():
                    if not task.is_terminal():
                        self._record(task, TaskState.CANCELED)
                self._in_flight.clear()
                self._reserved = 0
                break
        if self._canceled:
            self._final_state = RunState.CANCELED
        elif any(t.state is TaskState.FAILED for t in self._tasks.values()):
            self._final_state = RunState.FAILED
        else:
            self._final_state = RunState.DONE
        self._pool.shutdown(wait=False)
        self._finished.set()


def submit(workflow: Workflow, backend: ExecutionBackend | None = None,
           pool_size: int | None = None) -> WorkflowRun:
    """Validate a workflow and begin executing it asynchronously."""
    validate_workflow(workflow)
    return WorkflowRun(workflow, backend or LocalProcessBackend(), pool_size)


def write_event_log(records, path):
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.timestamp!r} {r.task_id} {r.from_state.value} {r.to_state.value}\n")


def read_event_log(path) -> list:
    records = []
    with open(path) as fh:
        for seq, line in enumerate(fh, start=1):
            ts, task_id, frm, to = line.split()
            records.append(TransitionRecord(seq, float(ts), task_id, TaskState(frm), TaskState(to)))
    return records


# -- workflow builders for the two shapes the toolkit runs --------------------

def build_weight_search_workflow(grid, *, strategies=("NN", "RB"),
                                 command_prefix=("anensolar",),
                                 worker_budget: int = 4,
                                 max_retries: int = 3) -> Workflow:
    """Ensemble-of-pipelines: one independent pipeline per weight vector.

    Each pipeline runs analog generation, then power simulation, then
    verification, with one task per strategy in every stage (6 tasks for the
    default two strategies).
    """
    if len(grid) == 0:
        raise WorkflowValidationError("empty weight grid")
    if not strategies:
        raise WorkflowValidationError("no strategies")
    stage_commands = (("anen", "anen"), ("simulate", "simulate"), ("verify", "verify"))
    pipelines = []
    for i, vec in enumerate(grid.vectors):
        wtext = ",".join(repr(float(v)) for v in vec)
        stages = []
        for stage_name, subcommand in stage_commands:
            tasks = [
                Task(
                    id=f"w{i:05d}-{stage_name}-{strat}",
                    argv=(*command_prefix, subcommand, "--weights", wtext, "--strategy", strat),
                    cores=1,
                    max_retries=max_retries,
                )
                for strat in strategies
            ]
            stages.append(Stage(id=f"w{i:05d}-{stage_name}", tasks=tasks))
        pipelines.append(Pipeline(id=f"w{i:05d}", stages=stages))
    return Workflow(pipelines, worker_budget)


def build_simulation_workflow(partitions, modules, *, command_prefix=("anensolar",),
                              worker_budget: int = 4, area_unit: float | None = None,
                              max_retries: int = 3) -> Workflow:
    """Pipeline-of-ensembles: one pipeline of two stages, one task per spatial
    partition in each stage (analog generation first, then power simulation),
    with core hints proportional to partition area."""
    partitions = list(partitions)
    modules = list(modules)
    if not partitions:
        raise WorkflowValidationError("no partitions")
    if not modules:
        raise WorkflowValidationError("no modules")
    names, areas = zip(*partitions)
    if min(areas) <= 0:
        raise WorkflowValidationError("partition areas must be positive")
    unit = area_unit if area_unit is not None else min(areas)
    cores = [max(1, round(a / unit)) for a in areas]
    budget = max(worker_budget, max(cores))

    anen_tasks = [
        Task(id=f"anen-{n}", argv=(*command_prefix, "anen", "--partition", str(n)),
             cores=c, max_retries=max_retries)
        for n, c in zip(names, cores)
    ]
    sim_tasks = [
        Task(id=f"simulate-{n}",
             argv=(*command_prefix, "simulate", "--partition", str(n),
                   "--modules", ",".join(str(m) for m in modules)),
             cores=c, max_retries=max_retries)
        for n, c in zip(names, cores)
    ]
    pipeline = Pipeline(id="simulation", stages=[
        Stage(id="analog-generation", tasks=anen_tasks),
        Stage(id="power-simulation", tasks=sim_tasks),
    ])
    return Workflow([pipeline], budget)


# -- declarative workflow files ------------------------------------------------

# the C emitter writes the same bytes as the pure-Python one, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _entries(node, key: str, where: str) -> list:
    """The list under ``key`` of a mapping in a workflow file (empty if absent)."""
    if not isinstance(node, dict):
        raise WorkflowValidationError(f"{where} must be a mapping")
    entries = node.get(key, [])
    if not isinstance(entries, list):
        raise WorkflowValidationError(f"{where}: {key!r} must be a list")
    return entries


def _integer(node: dict, key: str, default: int, where: str) -> int:
    try:
        return int(node.get(key, default))
    except (TypeError, ValueError):
        raise WorkflowValidationError(f"{where}: {key!r} must be an integer") from None


def load_workflow_file(path) -> Workflow:
    """Read a declarative workflow description (YAML).

    Raises ``WorkflowValidationError`` when the document is not YAML or not
    shaped as pipelines of stages of tasks."""
    with open(path) as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise WorkflowValidationError(f"workflow file is not valid YAML: {exc}") from None
    if not isinstance(doc, dict) or "pipelines" not in doc:
        raise WorkflowValidationError("workflow file needs a 'pipelines' list")
    pipelines = []
    for p, pdoc in enumerate(_entries(doc, "pipelines", "workflow file")):
        stages = []
        for s, sdoc in enumerate(_entries(pdoc, "stages", f"pipeline {p}")):
            tasks = []
            for t, tdoc in enumerate(_entries(sdoc, "tasks", f"pipeline {p} stage {s}")):
                where = f"pipeline {p} stage {s} task {t}"
                if not isinstance(tdoc, dict):
                    raise WorkflowValidationError(f"{where} must be a mapping")
                command = tdoc.get("command")
                if isinstance(command, str):
                    command = command.split()
                if command is not None and not isinstance(command, list):
                    raise WorkflowValidationError(f"{where}: 'command' must be a string or a list")
                tasks.append(Task(
                    id=str(tdoc.get("id", f"p{p}s{s}t{t}")),
                    argv=tuple(command or ()),
                    cores=_integer(tdoc, "cores", 1, where),
                    max_retries=_integer(tdoc, "max_retries", 3, where),
                ))
            stages.append(Stage(id=str(sdoc.get("id", f"p{p}s{s}")), tasks=tasks))
        pipelines.append(Pipeline(id=str(pdoc.get("id", f"p{p}")), stages=stages))
    return Workflow(pipelines, _integer(doc, "worker_budget", 4, "workflow file"))


def dump_workflow_file(workflow: Workflow, path):
    doc = {
        "worker_budget": workflow.worker_budget,
        "pipelines": [
            {
                "id": p.id,
                "stages": [
                    {
                        "id": s.id,
                        "tasks": [
                            {"id": t.id, "command": list(t.argv), "cores": t.cores,
                             "max_retries": t.max_retries}
                            for t in s.tasks
                        ],
                    }
                    for s in p.stages
                ],
            }
            for p in workflow.pipelines
        ],
    }
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=_YAML_DUMPER, sort_keys=False)
