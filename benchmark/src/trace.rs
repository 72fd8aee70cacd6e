//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer — nothing inside the program is instrumented. A
//! disabled recorder (`Spans::off`) never reads the clock, so the same
//! workload code serves the untraced and the traced pass.
//!
//! Tree shape: `workload → group → {generate, process_batch, complete |
//! pod_send | command, poll_controller, probe}`. Every span carries the
//! op-group id it belongs to.

use std::fmt::Write as _;
use std::time::Instant;

/// The closed set of span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Workload,
    Group,
    /// Copying pre-built frames into pool buffers (the generator).
    Generate,
    /// `Platform::process_batch`.
    ProcessBatch,
    /// The O(1) output check plus dropping the burst's outcomes, which
    /// returns its buffers to the pool.
    Complete,
    /// `Cluster::pod_send`.
    PodSend,
    /// One configuration command through the kernel's standard API.
    Command,
    /// `LinuxFpPlatform::poll_controller`.
    PollController,
    /// The 32-frame burst that verifies a reaction took effect.
    Probe,
}

impl SpanName {
    pub const ALL: [SpanName; 9] = [
        SpanName::Workload,
        SpanName::Group,
        SpanName::Generate,
        SpanName::ProcessBatch,
        SpanName::Complete,
        SpanName::PodSend,
        SpanName::Command,
        SpanName::PollController,
        SpanName::Probe,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Workload => "workload",
            SpanName::Group => "group",
            SpanName::Generate => "generate",
            SpanName::ProcessBatch => "process_batch",
            SpanName::Complete => "complete",
            SpanName::PodSend => "pod_send",
            SpanName::Command => "command",
            SpanName::PollController => "poll_controller",
            SpanName::Probe => "probe",
        }
    }
}

/// "No parent": the root span's parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Op-group id shared by all spans of one group.
    pub group: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. `current` is the innermost open span: leaves attach to
/// it, and [`Spans::open`]/[`Spans::close`] move it down and up.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    rows: Vec<Span>,
    current: u32,
    group: u64,
}

impl Spans {
    /// A recorder that records nothing and never reads the clock.
    pub fn off() -> Self {
        Spans {
            enabled: false,
            origin: Instant::now(),
            rows: Vec::new(),
            current: NO_PARENT,
            group: 0,
        }
    }

    /// A live recorder with room for `capacity` spans reserved up front,
    /// so recording does not allocate until that many were taken.
    pub fn on(capacity: usize) -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            rows: Vec::with_capacity(capacity),
            current: NO_PARENT,
            group: 0,
        }
    }

    /// Nanoseconds since the recorder started (0 when disabled).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a finished child of the innermost open span, which
    /// started at `start` (a value [`Spans::now`] returned) and ends now.
    #[inline]
    pub fn leaf(&mut self, name: SpanName, start: u64) {
        if self.enabled {
            let end_ns = self.now();
            self.rows.push(Span {
                name,
                start_ns: start,
                end_ns,
                parent: self.current,
                group: self.group,
            });
        }
    }

    /// Opens a span that will have children; returns its index for
    /// [`Spans::close`].
    pub fn open(&mut self, name: SpanName) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let idx = self.rows.len() as u32;
        let start_ns = self.now();
        self.rows.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            group: self.group,
        });
        self.current = idx;
        idx
    }

    /// Closes the span [`Spans::open`] returned `idx` for.
    pub fn close(&mut self, idx: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        let span = &mut self.rows[idx as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Sets the op-group id stamped on subsequently recorded spans.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    pub fn rows(&self) -> &[Span] {
        &self.rows
    }
}

/// Per-name totals over a span table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by direct children.
    pub self_ns: u64,
}

/// Sums count, duration and self time per span name.
pub fn totals(rows: &[Span]) -> Vec<(SpanName, SpanTotals)> {
    let mut child_ns = vec![0u64; rows.len()];
    for span in rows {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    let mut out: Vec<(SpanName, SpanTotals)> = SpanName::ALL
        .iter()
        .map(|n| (*n, SpanTotals::default()))
        .collect();
    for (i, span) in rows.iter().enumerate() {
        let t = &mut out[span.name as usize].1;
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += span.duration_ns().saturating_sub(child_ns[i]);
    }
    out.retain(|(_, t)| t.count > 0);
    out
}

/// Renders the span table as compact JSON rows
/// `[name_index, start_ns, end_ns, parent, group]` (parent `-1` for the
/// root). Written by hand: a traced second of the steady router is on
/// the order of 10^5 spans, too many to build as a value tree.
pub fn rows_json(rows: &[Span]) -> String {
    let mut out = String::with_capacity(rows.len() * 40 + 2);
    out.push('[');
    for (i, s) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            out,
            "[{},{},{},{},{}]",
            s.name as u8, s.start_ns, s.end_ns, parent, s.group
        )
        .expect("writing to a String cannot fail");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        let g = s.open(SpanName::Group);
        let t = s.now();
        s.leaf(SpanName::Generate, t);
        s.close(g);
        assert_eq!(t, 0);
        assert!(s.rows().is_empty());
    }

    #[test]
    fn tree_links_parents_groups_and_self_time() {
        let mut s = Spans::on(16);
        let w = s.open(SpanName::Workload);
        s.set_group(7);
        let g = s.open(SpanName::Group);
        let t = s.now();
        s.leaf(SpanName::Generate, t);
        let t = s.now();
        s.leaf(SpanName::ProcessBatch, t);
        s.close(g);
        s.close(w);
        let rows = s.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].parent, NO_PARENT);
        assert_eq!(rows[1].parent, 0);
        assert_eq!(rows[2].parent, 1);
        assert_eq!(rows[3].parent, 1);
        assert_eq!(rows[2].group, 7);
        assert!(rows[1].end_ns >= rows[3].end_ns);
        let totals = totals(rows);
        let group = totals
            .iter()
            .find(|(n, _)| *n == SpanName::Group)
            .unwrap()
            .1;
        let kids: u64 = rows[2].duration_ns() + rows[3].duration_ns();
        assert_eq!(group.self_ns, rows[1].duration_ns() - kids);
        let json = rows_json(rows);
        let parsed = linuxfp_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 4);
        assert_eq!(parsed[0][3].as_i64(), Some(-1));
        assert_eq!(parsed[2][4].as_u64(), Some(7));
    }
}
