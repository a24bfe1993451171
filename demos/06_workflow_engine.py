"""The pipeline/stage/task execution engine.

Shows the two workflow shapes used for the large runs (ensemble-of-pipelines
for the weight search, pipeline-of-ensembles for the partitioned simulation),
then executes a small workflow with injected failures to demonstrate the
state machine, budgeted dispatch, and resubmission.
"""

import hashlib
import pathlib

from anensolar import (
    ExecutionBackend,
    Pipeline,
    Stage,
    Task,
    TaskState,
    Workflow,
    build_simulation_workflow,
    build_weight_search_workflow,
    enumerate_weights,
    submit,
)
from anensolar.workflow import dump_workflow_file, write_event_log

out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

# shape 1: one pipeline per weight vector, three stages, two strategies each
grid = enumerate_weights(7, 0.1, exclude_unit_vectors=True)
search_wf = build_weight_search_workflow(grid)
print("weight search: %d pipelines x %d tasks per pipeline"
      % (len(search_wf.pipelines), sum(len(s.tasks) for s in search_wf.pipelines[0].stages)))
print("  first task command:", " ".join(search_wf.pipelines[0].stages[0].tasks[0].argv))

# shape 2: one pipeline of two stages, one task per spatial partition,
# core hints proportional to partition area
partitions = [(f"domain{i:02d}", float(1 + i % 4)) for i in range(99)]
sim_wf = build_simulation_workflow(partitions, ["SP128", "STU300", "KS20"])
stages = sim_wf.pipelines[0].stages
print("partitioned simulation: %d stages x %d tasks per stage; hints %s..."
      % (len(stages), len(stages[0].tasks), [t.cores for t in stages[0].tasks[:6]]))
dump_workflow_file(sim_wf, out / "simulation_workflow.yaml")
print("declarative description written to", out / "simulation_workflow.yaml")


class FlakyBackend(ExecutionBackend):
    """In-process stand-in for the runtime: ~15% of executions exit nonzero,
    deterministically in (task, attempt)."""

    def run(self, task):
        digest = hashlib.sha256(f"demo:{task.id}:{task.attempts}".encode()).digest()
        return 1 if digest[0] < 256 * 0.15 else 0


workflow = Workflow(
    pipelines=[
        Pipeline(id=f"p{p}", stages=[
            Stage(id=f"p{p}s{s}", tasks=[
                Task(id=f"p{p}s{s}t{t}", argv=("simulate", "--partition", f"p{p}"),
                     max_retries=3)
                for t in range(4)
            ])
            for s in range(2)
        ])
        for p in range(5)
    ],
    worker_budget=4,
)

run = submit(workflow, FlakyBackend())
final = run.wait(60)
records = run.events()
failures = sum(1 for r in records if r.to_state is TaskState.FAILED)
print("\nsmall chaos run: %d tasks -> %s with %d resubmitted failures, %d transitions"
      % (sum(len(s.tasks) for p in workflow.pipelines for s in p.stages),
         final.value, failures, len(records)))

write_event_log(records, out / "events.log")
print("event log written to", out / "events.log")
print("\none retried task's transition chain:")
retried = next(r.task_id for r in records if r.to_state is TaskState.FAILED)
for r in records:
    if r.task_id == retried:
        print("  %s -> %s" % (r.from_state.value, r.to_state.value))
