//! Scoped-thread fan-out used by the pipeline.
//!
//! The pipeline's unit of work is coarse (one corpus shard, or one whole
//! snapshot), so one dependency-free worker pool over
//! [`std::thread::scope`] is all that is needed: [`bounded_pipeline`]
//! feeds items from the calling thread, runs them on scoped workers, and
//! folds the results in feed order, so output is byte-identical to a
//! sequential loop regardless of scheduling.

use parking_lot::Mutex;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// Environment variable overriding the worker count (unset means one
/// worker per available core).
pub const THREADS_ENV: &str = "OFFNET_THREADS";

/// An invalid `OFFNET_THREADS` value.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ThreadConfigError {
    /// The value did not parse as an unsigned integer.
    NotANumber(String),
    /// Zero workers is not a runnable configuration.
    Zero,
}

impl std::fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadConfigError::NotANumber(v) => {
                write!(f, "{THREADS_ENV}={v:?} is not an unsigned integer")
            }
            ThreadConfigError::Zero => write!(f, "{THREADS_ENV}=0 requests zero workers"),
        }
    }
}

/// Parse one candidate `OFFNET_THREADS` value.
fn parse_thread_count(v: &str) -> Result<usize, ThreadConfigError> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err(ThreadConfigError::Zero),
        Ok(n) => Ok(n),
        Err(_) => Err(ThreadConfigError::NotANumber(v.to_owned())),
    }
}

/// Read `OFFNET_THREADS` from the environment: `Ok(None)` when unset,
/// `Ok(Some(n))` for a positive integer, `Err` for anything else.
fn thread_count_from_env() -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_thread_count(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Resolve the effective worker count: `OFFNET_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
///
/// An invalid value (non-numeric or zero) is *surfaced* — a warning on
/// stderr naming the bad value — before falling back, instead of being
/// silently swallowed as it once was.
pub fn default_thread_count() -> usize {
    match thread_count_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => available_parallelism(),
        Err(e) => {
            eprintln!("warning: {e}; falling back to available parallelism");
            available_parallelism()
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Run `f` with panic isolation: a panicking attempt is retried up to
/// `retries` more times; when every attempt panics, the last panic
/// message is the error.
pub(crate) fn isolate<R>(retries: usize, f: impl Fn() -> R) -> Result<R, String> {
    let mut last = String::new();
    for _ in 0..=retries {
        match std::panic::catch_unwind(AssertUnwindSafe(&f)) {
            Ok(r) => return Ok(r),
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    Err(last)
}

/// The [`bounded_pipeline`] depth for `workers` workers: enough items in
/// flight to keep every worker busy while one slow item holds up the
/// ordered fold, still O(workers) resident.
pub fn pipeline_depth(workers: usize) -> usize {
    workers + 2
}

/// A counting gate: the bounded-depth admission control of
/// [`bounded_pipeline`]. Permits are taken by the feeder and returned by
/// the ordered fold, so `fed - folded <= depth` at all times.
struct Gate {
    permits: std::sync::Mutex<usize>,
    cv: std::sync::Condvar,
}

impl Gate {
    fn new(n: usize) -> Self {
        Gate {
            permits: std::sync::Mutex::new(n),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Wait for a permit. Returns `false` when the pipeline aborted while
    /// waiting (an error downstream), so the feeder stops instead of
    /// deadlocking against a fold that will never run.
    fn acquire(&self, abort: &AtomicBool) -> bool {
        let mut p = self.permits.lock().expect("gate mutex");
        loop {
            if abort.load(Ordering::Acquire) {
                return false;
            }
            if *p > 0 {
                *p -= 1;
                return true;
            }
            p = self.cv.wait(p).expect("gate mutex");
        }
    }

    fn release(&self) {
        *self.permits.lock().expect("gate mutex") += 1;
        self.cv.notify_one();
    }

    /// Wake every waiter so they observe the abort flag.
    fn wake_all(&self) {
        let _hold = self.permits.lock().expect("gate mutex");
        self.cv.notify_all();
    }
}

/// A bounded-depth produce/consume pipeline with a strictly ordered fold.
///
/// `feed` runs on the calling thread and pushes work items through the
/// provided closure; each item is stamped with its push index. Up to
/// `workers` scoped threads run `work(index, item)` concurrently, and a
/// dedicated fold thread applies `fold(index, result)` **in push order**
/// (a reorder buffer holds early finishers). The gate bounds the number
/// of items that have been fed but not yet folded to
/// [`pipeline_depth`]`(workers)`, so with item-sized payloads peak memory
/// is `depth × item`, independent of the input length.
///
/// Determinism: because the fold observes results in push order, any pure
/// `work` yields a fold sequence identical to the serial
/// `for (i, t) in items { fold(i, work(i, t)?)? }` — which is exactly
/// what runs inline (no threads at all) when `workers <= 1`.
///
/// The push closure returns `false` once the pipeline has aborted (some
/// `work` or `fold` returned an error or panicked); the feeder should
/// stop then. The first error observed is returned; `feed`'s own error is
/// returned only when the pipeline itself saw none. A panic in `work` or
/// `fold` is resumed on the caller once every thread has joined, at any
/// worker count.
pub fn bounded_pipeline<T, R, E, Feed, Work, Fold>(
    workers: usize,
    feed: Feed,
    work: Work,
    mut fold: Fold,
) -> Result<(), E>
where
    T: Send,
    R: Send,
    E: Send,
    Feed: FnOnce(&mut dyn FnMut(T) -> bool) -> Result<(), E>,
    Work: Fn(usize, T) -> Result<R, E> + Sync,
    Fold: FnMut(usize, R) -> Result<(), E> + Send,
{
    if workers <= 1 {
        // Inline serial path: the escape hatch that makes
        // `OFFNET_THREADS=1` runs thread-free and trivially deterministic.
        let mut first_err: Option<E> = None;
        let mut idx = 0usize;
        let feed_res = feed(
            &mut |item| match work(idx, item).and_then(|r| fold(idx, r)) {
                Ok(()) => {
                    idx += 1;
                    true
                }
                Err(e) => {
                    first_err = Some(e);
                    false
                }
            },
        );
        return match first_err {
            Some(e) => Err(e),
            None => feed_res,
        };
    }

    let gate = Gate::new(pipeline_depth(workers));
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<E>> = Mutex::new(None);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let (task_tx, task_rx) = mpsc::channel::<(usize, T)>();
    let task_rx = Mutex::new(task_rx);
    let (res_tx, res_rx) = mpsc::channel::<(usize, Result<R, E>)>();

    let feed_res = std::thread::scope(|scope| {
        let gate = &gate;
        let abort = &abort;
        let first_err = &first_err;
        let task_rx = &task_rx;
        let work = &work;
        let first_panic = &first_panic;
        // Stop the pipeline: the feeder returns from the gate, workers
        // drain the queue, the fold drains the results.
        let stop = move || {
            abort.store(true, Ordering::Release);
            gate.wake_all();
        };
        // Keep a panicking thread's payload for the caller and stop.
        let caught = move |body: &mut dyn FnMut()| {
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(body)) {
                first_panic.lock().get_or_insert(payload);
                stop();
            }
        };
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                caught(&mut || loop {
                    let msg = task_rx.lock().recv();
                    let Ok((i, item)) = msg else { break };
                    if abort.load(Ordering::Acquire) {
                        continue; // drain the queue without computing
                    }
                    if res_tx.send((i, work(i, item))).is_err() {
                        break;
                    }
                })
            });
        }
        drop(res_tx); // workers hold the remaining clones

        let fold = &mut fold;
        scope.spawn(move || {
            let mut next = 0usize;
            let mut pending: BTreeMap<usize, R> = BTreeMap::new();
            let fail = |e: E| {
                first_err.lock().get_or_insert(e);
                stop();
            };
            caught(&mut || {
                for (i, r) in res_rx.iter() {
                    if abort.load(Ordering::Acquire) {
                        continue; // drain so workers never block on send
                    }
                    match r {
                        Err(e) => fail(e),
                        Ok(r) => {
                            pending.insert(i, r);
                            // Fold every newly contiguous result, releasing
                            // one permit per item actually retired.
                            while let Some(r) = pending.remove(&next) {
                                match fold(next, r) {
                                    Ok(()) => {
                                        next += 1;
                                        gate.release();
                                    }
                                    Err(e) => {
                                        fail(e);
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
            })
        });

        let mut pushed = 0usize;
        let feed_res = feed(&mut |item| {
            if !gate.acquire(abort) {
                return false;
            }
            if task_tx.send((pushed, item)).is_err() {
                return false;
            }
            pushed += 1;
            true
        });
        drop(task_tx); // close the queue: workers, then the fold, exit
        feed_res
    });

    if let Some(payload) = first_panic.into_inner() {
        std::panic::resume_unwind(payload);
    }
    match first_err.into_inner() {
        Some(e) => Err(e),
        None => feed_res,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    #[test]
    fn default_thread_count_is_positive() {
        assert!(default_thread_count() >= 1);
    }

    #[test]
    fn thread_count_parse_paths() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 16 "), Ok(16));
        assert_eq!(parse_thread_count("0"), Err(ThreadConfigError::Zero));
        assert_eq!(
            parse_thread_count("many"),
            Err(ThreadConfigError::NotANumber("many".to_owned()))
        );
        assert_eq!(
            parse_thread_count("-2"),
            Err(ThreadConfigError::NotANumber("-2".to_owned()))
        );
        assert_eq!(
            parse_thread_count("3.5"),
            Err(ThreadConfigError::NotANumber("3.5".to_owned()))
        );
        // Errors render the offending value for the warning line.
        let msg = ThreadConfigError::NotANumber("many".to_owned()).to_string();
        assert!(
            msg.contains("OFFNET_THREADS") && msg.contains("many"),
            "{msg}"
        );
    }

    fn run_pipeline(workers: usize, n: u64) -> Result<Vec<(usize, u64)>, &'static str> {
        let mut folded = Vec::new();
        bounded_pipeline(
            workers,
            |push| {
                for i in 0..n {
                    if !push(i) {
                        break;
                    }
                }
                Ok(())
            },
            |_, item: u64| {
                // Skew the finish order: early items run longest.
                for _ in 0..(n - item) * 500 {
                    std::hint::black_box(item);
                }
                Ok(item * 3)
            },
            |i, r| {
                folded.push((i, r));
                Ok(())
            },
        )?;
        Ok(folded)
    }

    #[test]
    fn bounded_pipeline_folds_in_push_order_at_any_width() {
        let expect: Vec<(usize, u64)> = (0..200u64).map(|i| (i as usize, i * 3)).collect();
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                run_pipeline(workers, 200).unwrap(),
                expect,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn bounded_pipeline_bounds_in_flight_items() {
        // fed - folded can never exceed the depth: sample the gauge from
        // the workers, where every in-flight item passes through.
        let fed = AtomicUsize::new(0);
        let folded_n = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let workers = 4;
        let depth = pipeline_depth(workers);
        bounded_pipeline::<_, _, (), _, _, _>(
            workers,
            |push| {
                for i in 0..300u32 {
                    if !push(i) {
                        break;
                    }
                    // Counted only once admitted through the gate, so the
                    // worker-side gauge can undercount but never overshoot.
                    fed.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            },
            |_, item| {
                let gauge = fed.load(Ordering::SeqCst) - folded_n.load(Ordering::SeqCst);
                peak.fetch_max(gauge, Ordering::SeqCst);
                Ok(item)
            },
            |_, _| {
                folded_n.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(folded_n.load(Ordering::SeqCst), 300);
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= depth, "peak in-flight {peak} exceeds depth {depth}");
    }

    #[test]
    fn bounded_pipeline_propagates_errors_and_stops_feeding() {
        for workers in [1, 4] {
            let mut folded = 0usize;
            let res = bounded_pipeline(
                workers,
                |push| {
                    for i in 0..10_000u32 {
                        if !push(i) {
                            break;
                        }
                    }
                    Ok(())
                },
                |_, item| {
                    if item == 5 {
                        Err("work failed at 5")
                    } else {
                        Ok(item)
                    }
                },
                |_, _| {
                    folded += 1;
                    Ok(())
                },
            );
            assert_eq!(res, Err("work failed at 5"), "workers={workers}");
            assert!(folded <= 5, "fold ran past the failed item: {folded}");
        }

        // Fold errors surface the same way.
        let res = bounded_pipeline(
            4,
            |push| {
                for i in 0..100u32 {
                    if !push(i) {
                        break;
                    }
                }
                Ok(())
            },
            |_, item| Ok(item),
            |i, _| {
                if i == 7 {
                    Err("fold failed at 7")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(res, Err("fold failed at 7"));
    }

    /// Run a 100-item pipeline on its own thread whose `work` (or, with
    /// `in_fold`, whose `fold`) panics at item 3. Returns the panic message
    /// the call raised, `None` if it returned without panicking, or a
    /// timeout error if it had not returned after 10 s.
    fn pipeline_panic(workers: usize, in_fold: bool) -> Result<Option<String>, RecvTimeoutError> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                bounded_pipeline::<_, _, (), _, _, _>(
                    workers,
                    |push| {
                        for i in 0..100u32 {
                            if !push(i) {
                                break;
                            }
                        }
                        Ok(())
                    },
                    |_, item| {
                        assert!(in_fold || item != 3, "work panicked at 3");
                        Ok(item)
                    },
                    |i, _| {
                        assert!(!in_fold || i != 3, "fold panicked at 3");
                        Ok(())
                    },
                )
            });
            let _ = tx.send(outcome.err().map(|p| panic_message(p.as_ref())));
        });
        rx.recv_timeout(Duration::from_secs(10))
    }

    /// A panic in `work` or `fold` stops the pipeline and is raised on the
    /// caller with its own payload, at any worker count — never a hang
    /// on a permit the panicked item never returns.
    #[test]
    fn bounded_pipeline_raises_a_panic_on_the_caller() {
        for workers in [1, 2] {
            for (in_fold, message) in [(false, "work panicked at 3"), (true, "fold panicked at 3")]
            {
                assert_eq!(
                    pipeline_panic(workers, in_fold),
                    Ok(Some(message.to_owned())),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn transient_panic_is_retried() {
        use std::sync::atomic::AtomicU32;
        let first_try = AtomicU32::new(0);
        let out = isolate(2, || {
            if first_try.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky once");
            }
            7u32
        });
        assert_eq!(out, Ok(7));
        assert_eq!(first_try.load(Ordering::SeqCst), 2);
    }
}
