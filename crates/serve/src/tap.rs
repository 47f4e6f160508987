//! Per-session trace forwarding: a [`TapSink`] is attached to every
//! pooled session for its whole life, and `subscribe-trace` points it at
//! (or away from) a connection's outbound writer.
//!
//! The engine only constructs trace events when a sink is attached, so
//! daemon sessions pay the (measured-small) enabled-path cost of event
//! construction; an *unsubscribed* tap then costs one relaxed atomic
//! load per event before discarding it. Subscribed taps write each event
//! as one `{"frame":"trace",...}` line under the connection's writer
//! lock — interleaved between responses, never inside one.

use crate::proto::{Frame, TraceMode};
use scald_trace::{TraceEvent, TraceSink};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The shared, lockable outbound writer of one client connection.
pub(crate) type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

struct TapTarget {
    mode: TraceMode,
    /// The session name as this connection knows it, echoed in frames.
    session: String,
    writer: SharedWriter,
}

/// A swappable [`TraceSink`] bridging one session's engine events to
/// whichever connection (if any) currently subscribes to them.
#[derive(Default)]
pub struct TapSink {
    subscribed: AtomicBool,
    target: Mutex<Option<TapTarget>>,
}

impl TapSink {
    /// A fresh, unsubscribed tap.
    #[must_use]
    pub fn new() -> TapSink {
        TapSink::default()
    }

    /// Points the tap at a connection's writer ([`TraceMode::Off`]
    /// unsubscribes).
    pub(crate) fn subscribe(&self, mode: TraceMode, session: String, writer: SharedWriter) {
        let mut target = self.target.lock().expect("tap target poisoned");
        if mode == TraceMode::Off {
            *target = None;
        } else {
            *target = Some(TapTarget {
                mode,
                session,
                writer,
            });
        }
        self.subscribed.store(target.is_some(), Ordering::Release);
    }

    /// Unsubscribes (used when a session returns to the pool, so the
    /// next client never inherits a dead connection's writer).
    pub(crate) fn reset(&self) {
        self.subscribe(TraceMode::Off, String::new(), unused_writer());
    }
}

fn unused_writer() -> SharedWriter {
    Arc::new(Mutex::new(
        Box::new(std::io::sink()) as Box<dyn Write + Send>
    ))
}

/// `true` for the coarse subset: run/case/wave milestones, never the
/// per-evaluation or per-signal firehose.
fn coarse(event: &TraceEvent<'_>) -> bool {
    !matches!(
        event,
        TraceEvent::Evaluation { .. } | TraceEvent::SignalSettled { .. }
    )
}

impl TraceSink for TapSink {
    fn record(&self, event: &TraceEvent<'_>) {
        if !self.subscribed.load(Ordering::Acquire) {
            return;
        }
        let mut target = self.target.lock().expect("tap target poisoned");
        let Some(t) = target.as_ref() else { return };
        if t.mode == TraceMode::Coarse && !coarse(event) {
            return;
        }
        let frame = Frame::Trace {
            session: t.session.clone(),
            event: event.to_json(),
        };
        let line = frame.into_json().to_string();
        let failed = {
            let mut w = t.writer.lock().expect("connection writer poisoned");
            writeln!(w, "{line}").and_then(|()| w.flush()).is_err()
        };
        if failed {
            // The subscriber hung up; stop forwarding rather than
            // erroring on every subsequent event.
            *target = None;
            self.subscribed.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn eval_event() -> TraceEvent<'static> {
        TraceEvent::Evaluation {
            case: None,
            prim: 1,
            name: "P",
            ordinal: 1,
            queue_depth: 0,
        }
    }

    #[test]
    fn unsubscribed_tap_discards_and_coarse_filters() {
        let tap = TapSink::new();
        tap.record(&eval_event()); // no target: discarded, no panic

        let buf = Buf::default();
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(buf.clone())));
        tap.subscribe(TraceMode::Coarse, "s1".into(), writer);
        tap.record(&eval_event()); // filtered out by coarse mode
        tap.record(&TraceEvent::RunEnd {
            wall_nanos: 1,
            events: 2,
            evaluations: 3,
        });
        let text = String::from_utf8(buf.0.lock().expect("buf").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "{text}");
        assert!(lines[0].contains("\"frame\":\"trace\""), "{text}");
        assert!(lines[0].contains("\"session\":\"s1\""), "{text}");
        assert!(lines[0].contains("\"type\":\"run_end\""), "{text}");

        tap.reset();
        tap.record(&TraceEvent::RunEnd {
            wall_nanos: 1,
            events: 2,
            evaluations: 3,
        });
        let after = buf.0.lock().expect("buf").len();
        assert_eq!(after, text.len(), "reset tap must not write");
    }
}
