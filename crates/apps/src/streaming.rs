//! Windowed streaming analytics (§5.1).
//!
//! The paper positions Pulsar Functions as the substrate for "analytics on
//! real-time data streams in a serverless fashion" and cites the
//! real-time-analytics literature (Kejariwal et al.). Sketches cover the
//! approximate side; this module adds the *exact* windowed operators every
//! streaming engine provides:
//!
//! - [`TumblingWindow`]: fixed, non-overlapping windows;
//! - [`SlidingWindow`]: overlapping windows (width + slide);
//!
//! both with **event-time** semantics and watermark-based firing: events
//! may arrive out of order up to `allowed_lateness`; a window fires once
//! the watermark (max event time seen − lateness) passes its end; events
//! later than that are counted as dropped, never silently mis-aggregated.
//! [`deploy_windowed_function`] hosts an operator inside a Pulsar function.

use std::collections::BTreeMap;
use std::time::Duration;

use taureau_pulsar::{FunctionConfig, FunctionRuntime, PulsarError};

/// Aggregate of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Events in the window.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Minimum value.
    pub(crate) min: f64,
    /// Maximum value.
    pub(crate) max: f64,
}

impl WindowStats {
    fn new(v: f64) -> Self {
        Self {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// A fired window: `[start, start + width)` and its aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredWindow {
    /// Window start (event time).
    pub start: Duration,
    /// Aggregate over the window.
    pub stats: WindowStats,
}

/// Tumbling event-time windows.
#[derive(Debug)]
pub struct TumblingWindow {
    width: Duration,
    allowed_lateness: Duration,
    open: BTreeMap<u64, WindowStats>, // key: window start nanos
    watermark: Duration,
    /// Events dropped for arriving after their window fired.
    pub late_dropped: u64,
}

impl TumblingWindow {
    /// Windows of `width`, tolerating out-of-orderness up to
    /// `allowed_lateness`.
    pub fn new(width: Duration, allowed_lateness: Duration) -> Self {
        assert!(!width.is_zero());
        Self {
            width,
            allowed_lateness,
            open: BTreeMap::new(),
            watermark: Duration::ZERO,
            late_dropped: 0,
        }
    }

    fn window_start(&self, t: Duration) -> u64 {
        let w = self.width.as_nanos() as u64;
        (t.as_nanos() as u64 / w) * w
    }

    /// Ingest one event; returns any windows that fired as a result.
    pub fn process(&mut self, event_time: Duration, value: f64) -> Vec<FiredWindow> {
        self.watermark = self
            .watermark
            .max(event_time.saturating_sub(self.allowed_lateness));
        let start = self.window_start(event_time);
        let end = Duration::from_nanos(start) + self.width;
        if end <= self.watermark {
            self.late_dropped += 1;
        } else {
            self.open
                .entry(start)
                .and_modify(|s| s.add(value))
                .or_insert_with(|| WindowStats::new(value));
        }
        self.drain_fired()
    }

    /// Fire every window whose end is at or before the watermark.
    fn drain_fired(&mut self) -> Vec<FiredWindow> {
        let mut fired = Vec::new();
        let w = self.width;
        let wm = self.watermark;
        let ready: Vec<u64> = self
            .open
            .keys()
            .copied()
            .take_while(|&s| Duration::from_nanos(s) + w <= wm)
            .collect();
        for s in ready {
            let stats = self.open.remove(&s).expect("present");
            fired.push(FiredWindow {
                start: Duration::from_nanos(s),
                stats,
            });
        }
        fired
    }

    /// Flush all open windows (stream end).
    pub fn flush(&mut self) -> Vec<FiredWindow> {
        let mut fired: Vec<FiredWindow> = self
            .open
            .iter()
            .map(|(&s, &stats)| FiredWindow {
                start: Duration::from_nanos(s),
                stats,
            })
            .collect();
        self.open.clear();
        fired.sort_by_key(|f| f.start);
        fired
    }
}

/// Sliding event-time windows: width `width`, advancing by `slide`.
#[derive(Debug)]
pub struct SlidingWindow {
    width: Duration,
    slide: Duration,
    inner: TumblingWindow, // panes of size `slide`
    /// Closed panes by start nanos, kept for combining into windows.
    closed_panes: BTreeMap<u64, WindowStats>,
}

impl SlidingWindow {
    /// Overlapping windows; `width` must be a multiple of `slide`.
    pub fn new(width: Duration, slide: Duration, allowed_lateness: Duration) -> Self {
        assert!(!slide.is_zero());
        assert_eq!(
            width.as_nanos() % slide.as_nanos(),
            0,
            "width must be a multiple of slide"
        );
        Self {
            width,
            slide,
            inner: TumblingWindow::new(slide, allowed_lateness),
            closed_panes: BTreeMap::new(),
        }
    }

    /// Panes per window.
    fn panes(&self) -> u64 {
        (self.width.as_nanos() / self.slide.as_nanos()) as u64
    }

    /// Ingest one event. Uses the pane trick: aggregate `slide`-sized
    /// panes, combine the trailing `width/slide` panes when a pane closes.
    /// Returns completed *sliding* windows (identified by their start).
    pub fn process(&mut self, event_time: Duration, value: f64) -> Vec<FiredWindow> {
        let fired_panes = self.inner.process(event_time, value);
        let mut out = Vec::new();
        for pane in fired_panes {
            self.closed_panes
                .insert(pane.start.as_nanos() as u64, pane.stats);
            // The sliding window ending at this pane's end is complete.
            let end = pane.start + self.slide;
            let start = end.checked_sub(self.width).unwrap_or(Duration::ZERO);
            if end >= self.width {
                if let Some(stats) = self.combine(start) {
                    out.push(FiredWindow { start, stats });
                }
            }
        }
        out
    }

    fn combine(&self, start: Duration) -> Option<WindowStats> {
        let mut acc: Option<WindowStats> = None;
        for i in 0..self.panes() {
            let pane_start =
                (start + Duration::from_nanos(i * self.slide.as_nanos() as u64)).as_nanos() as u64;
            if let Some(s) = self.closed_panes.get(&pane_start) {
                match &mut acc {
                    None => acc = Some(*s),
                    Some(a) => {
                        a.count += s.count;
                        a.sum += s.sum;
                        a.min = a.min.min(s.min);
                        a.max = a.max.max(s.max);
                    }
                }
            }
        }
        acc
    }
}

/// Wire format for windowed events: `"<event_time_ms>|<value>"`.
pub fn encode_event(event_time: Duration, value: f64) -> Vec<u8> {
    format!("{}|{}", event_time.as_millis(), value).into_bytes()
}

fn decode_event(bytes: &[u8]) -> Option<(Duration, f64)> {
    let s = std::str::from_utf8(bytes).ok()?;
    let (t, v) = s.split_once('|')?;
    Some((Duration::from_millis(t.parse().ok()?), v.parse().ok()?))
}

/// Wire format for fired windows:
/// `"<start_ms>|<count>|<sum>|<min>|<max>"`.
pub fn decode_fired(bytes: &[u8]) -> Option<FiredWindow> {
    let s = std::str::from_utf8(bytes).ok()?;
    let parts: Vec<&str> = s.split('|').collect();
    if parts.len() != 5 {
        return None;
    }
    Some(FiredWindow {
        start: Duration::from_millis(parts[0].parse().ok()?),
        stats: WindowStats {
            count: parts[1].parse().ok()?,
            sum: parts[2].parse().ok()?,
            min: parts[3].parse().ok()?,
            max: parts[4].parse().ok()?,
        },
    })
}

/// Deploy a tumbling-window aggregator as a Pulsar function: consumes
/// `"<ts>|<value>"` events from `input`, publishes one
/// `"<start>|<count>|<sum>|<min>|<max>"` message per fired window to
/// `output`.
pub fn deploy_windowed_function(
    runtime: &FunctionRuntime,
    name: &str,
    input: &str,
    output: &str,
    width: Duration,
    allowed_lateness: Duration,
) -> Result<(), PulsarError> {
    let mut window = TumblingWindow::new(width, allowed_lateness);
    let output_topic = output.to_string();
    let encode = |f: &FiredWindow| {
        format!(
            "{}|{}|{}|{}|{}",
            f.start.as_millis(),
            f.stats.count,
            f.stats.sum,
            f.stats.min,
            f.stats.max
        )
        .into_bytes()
    };
    runtime.register(
        FunctionConfig {
            name: name.to_string(),
            inputs: vec![input.to_string()],
            output: Some(output.to_string()),
        },
        Box::new(move |msg, ctx| {
            let (t, v) = decode_event(&msg.payload)?;
            let fired = window.process(t, v);
            let mut it = fired.into_iter();
            let first = it.next();
            // If several windows close on one event, ship the extras via
            // explicit publishes; the first rides the function's output.
            for f in it {
                let _ = ctx.publish_to(&output_topic, &encode(&f));
            }
            first.map(|f| encode(&f))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn tumbling_fires_on_watermark() {
        let mut w = TumblingWindow::new(ms(100), ms(0));
        assert!(w.process(ms(10), 1.0).is_empty());
        assert!(w.process(ms(50), 2.0).is_empty());
        // An event at 120 pushes the watermark past [0,100).
        let fired = w.process(ms(120), 3.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].start, ms(0));
        assert_eq!(fired[0].stats.count, 2);
        assert_eq!(fired[0].stats.sum, 3.0);
        assert_eq!(w.open.len(), 1);
    }

    #[test]
    fn out_of_order_within_lateness_is_counted() {
        let mut w = TumblingWindow::new(ms(100), ms(50));
        w.process(ms(120), 1.0); // watermark = 70
                                 // An out-of-order event for [0,100) still lands (70 < 100).
        assert!(w.process(ms(80), 2.0).is_empty());
        // Advance watermark past 100: the window fires with both… wait,
        // the 120 event is in [100,200). [0,100) holds only the 80 event.
        let fired = w.process(ms(200), 3.0); // watermark = 150
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].stats.count, 1);
        assert_eq!(fired[0].stats.sum, 2.0);
    }

    #[test]
    fn too_late_events_are_dropped_and_counted() {
        let mut w = TumblingWindow::new(ms(100), ms(0));
        w.process(ms(50), 1.0);
        w.process(ms(250), 1.0); // watermark 250: [0,100) fired
        let before = w.late_dropped;
        w.process(ms(60), 99.0); // hopelessly late
        assert_eq!(w.late_dropped, before + 1);
        // The fired window was not retro-poisoned: flush only has [200,300).
        let remaining = w.flush();
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].start, ms(200));
    }

    #[test]
    fn stats_track_min_max_mean() {
        let mut w = TumblingWindow::new(ms(1000), ms(0));
        for (t, v) in [(10, 4.0), (20, -2.0), (30, 7.0)] {
            w.process(ms(t), v);
        }
        let fired = w.flush();
        let s = fired[0].stats;
        assert_eq!(s.count, 3);
        assert_eq!(s.min, -2.0);
        assert_eq!(s.max, 7.0);
        assert!((s.sum / s.count as f64 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_windows_overlap() {
        // width 200, slide 100: window [0,200) and [100,300) both see the
        // event at 150.
        let mut w = SlidingWindow::new(ms(200), ms(100), ms(0));
        w.process(ms(50), 1.0);
        w.process(ms(150), 2.0);
        let mut fired = Vec::new();
        fired.extend(w.process(ms(250), 3.0));
        fired.extend(w.process(ms(350), 4.0));
        fired.extend(w.process(ms(450), 5.0));
        // Window [0,200): events at 50,150 → sum 3. Window [100,300):
        // events 150,250 → sum 5.
        let w0 = fired.iter().find(|f| f.start == ms(0)).expect("[0,200)");
        assert_eq!(w0.stats.sum, 3.0);
        assert_eq!(w0.stats.count, 2);
        let w1 = fired
            .iter()
            .find(|f| f.start == ms(100))
            .expect("[100,300)");
        assert_eq!(w1.stats.sum, 5.0);
    }

    #[test]
    fn windowed_function_end_to_end() {
        use taureau_core::clock::WallClock;
        use taureau_jiffy::Jiffy;
        use taureau_pulsar::{PulsarCluster, PulsarConfig, SubscriptionMode};
        let cluster = PulsarCluster::new(PulsarConfig::default(), WallClock::shared());
        let runtime = FunctionRuntime::new(cluster.clone(), Jiffy::with_defaults());
        cluster.create_topic("readings", 1).unwrap();
        cluster.create_topic("minutely", 1).unwrap();
        deploy_windowed_function(
            &runtime,
            "per-100ms-stats",
            "readings",
            "minutely",
            ms(100),
            ms(0),
        )
        .unwrap();
        let p = cluster.producer("readings").unwrap();
        // 10 events per 100 ms window across 3 windows, plus a late tick
        // to flush the third.
        for i in 0..30u64 {
            p.send(&encode_event(ms(i * 10), i as f64)).unwrap();
        }
        p.send(&encode_event(ms(1000), 0.0)).unwrap();
        runtime.run_available("per-100ms-stats").unwrap();
        let mut out = cluster
            .subscribe("minutely", "check", SubscriptionMode::Exclusive)
            .unwrap();
        let fired: Vec<FiredWindow> = out
            .drain()
            .unwrap()
            .iter()
            .map(|m| decode_fired(&m.payload).unwrap())
            .collect();
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0].start, ms(0));
        assert_eq!(fired[0].stats.count, 10);
        assert_eq!(fired[0].stats.sum, (0..10).sum::<u64>() as f64);
        assert_eq!(fired[2].stats.sum, (20..30).sum::<u64>() as f64);
    }

    #[test]
    fn event_codec_roundtrip() {
        let enc = encode_event(ms(1234), 5.5);
        assert_eq!(decode_event(&enc), Some((ms(1234), 5.5)));
        assert_eq!(decode_event(b"garbage"), None);
        let fired = FiredWindow {
            start: ms(100),
            stats: WindowStats {
                count: 3,
                sum: 6.0,
                min: 1.0,
                max: 3.0,
            },
        };
        let enc = format!(
            "{}|{}|{}|{}|{}",
            fired.start.as_millis(),
            fired.stats.count,
            fired.stats.sum,
            fired.stats.min,
            fired.stats.max
        );
        assert_eq!(decode_fired(enc.as_bytes()), Some(fired));
    }
}
