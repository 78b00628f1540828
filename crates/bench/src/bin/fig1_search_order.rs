//! Fig. 1 — working principle of the Priority Local scheduler: the
//! six-step task search order, demonstrated live on the native runtime's
//! scheduler with a seeded queue state.

use grain_counters::ThreadCounters;
use grain_runtime::scheduler::{Scheduler, SearchState};
use grain_runtime::task::{Priority, StagedTask, Task, TaskId};
use grain_runtime::SchedulerKind;
use grain_topology::NumaTopology;

fn staged(id: u64) -> StagedTask {
    StagedTask::once(TaskId(id), Priority::Normal, |_| {})
}

fn main() {
    println!("Fig. 1: Priority Local scheduler search order (worker 0 of 4, 2 NUMA domains)");
    println!();
    println!("  Task Scheduling Algorithm          queue seeded with task id");
    println!("  1. Local Pending                   10");
    println!("  2. Local Staged                    11");
    println!("  3. Local NUMA Staged               12  (worker 1)");
    println!("  4. Local NUMA Pending              13  (worker 1)");
    println!("  5. Remote NUMA Staged              14  (worker 2)");
    println!("  6. Remote NUMA Pending             15  (worker 3)");
    println!("     Low-priority queue              16");
    println!();

    let numa = NumaTopology::block(4, 2);
    let sched = Scheduler::new(numa, SchedulerKind::PriorityLocalFifo, 1);
    let counters = ThreadCounters::new(4);
    let mut search = SearchState::default();
    sched.queues.push_pending(0, Task::convert(staged(10)));
    sched.queues.push_staged(0, staged(11));
    sched.queues.push_staged(1, staged(12));
    sched.queues.push_pending(1, Task::convert(staged(13)));
    sched.queues.push_staged(2, staged(14));
    sched.queues.push_pending(3, Task::convert(staged(15)));
    sched.queues.push_low(staged(16));

    println!("Observed dispatch order for worker 0:");
    let mut step = 1;
    while let Some((task, prov)) = sched.find_work(0, &counters, &mut search) {
        println!("  step {step}: task#{} from {:?}", task.id.0, prov);
        let expected: &[(u64, bool)] = &[
            (10, false),
            (11, false),
            (12, true),
            (13, true),
            (14, true),
            (15, true),
            (16, false),
        ];
        let (id, steal) = expected[step - 1];
        assert_eq!(task.id.0, id, "search order violated");
        assert_eq!(prov.is_steal(), steal);
        step += 1;
    }
    assert_eq!(step, 8, "all seven seeded tasks must be found in order");
    println!();
    println!(
        "Counters: staged-accesses={} staged-misses={} pending-accesses={} pending-misses={} stolen={} converted={}",
        counters.staged_accesses.sum(),
        counters.staged_misses.sum(),
        counters.pending_accesses.sum(),
        counters.pending_misses.sum(),
        counters.stolen.sum(),
        counters.converted.sum()
    );
    println!("OK: dispatch order matches the paper's Fig. 1 search order exactly.");
}
