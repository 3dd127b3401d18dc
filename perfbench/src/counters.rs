//! The counters the system keeps about its own layers, read from its
//! metrics snapshots and summed over shards or stores.

use crate::report::Report;
use crate::stats::ratio;
use zoom::warehouse::MetricsSnapshot;

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Layer counters summed over one or more metrics snapshots.
        #[derive(Clone, Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
                Counters { $($field: f(self.$field, o.$field),)* }
            }
        }
    };
}

counters! {
    /// View-run cache hits.
    vr_hits,
    /// View-run cache lookups.
    vr_lookups,
    /// View-run cache evictions.
    evictions,
    /// Index (bitset and label) cache hits.
    index_hits,
    /// Index cache lookups.
    index_lookups,
    /// Index cache misses: the index builds.
    index_misses,
    /// Bytes held by bitset indexes (a gauge).
    bitset_bytes,
    /// Bytes held by label indexes (a gauge).
    label_bytes,
    /// Incremental label appends.
    label_appends,
    /// Label rebuilds.
    label_rebuilds,
    /// Policy view substitutions.
    substitutions,
    /// Journal compactions.
    compactions,
    /// Requests shed by admission control.
    shed,
    /// Queries stopped by their deadline.
    deadline_exceeded,
}

impl Counters {
    /// The sum over `snapshots`.
    pub fn of(snapshots: &[MetricsSnapshot]) -> Counters {
        snapshots.iter().fold(Counters::default(), |acc, m| {
            let (vr, ic, lc) = (&m.view_run_cache, &m.index_cache, &m.index.label_cache);
            acc.plus(&Counters {
                vr_hits: vr.hits,
                vr_lookups: vr.hits + vr.misses,
                evictions: vr.evictions,
                index_hits: ic.hits + lc.hits,
                index_lookups: ic.hits + ic.misses + lc.hits + lc.misses,
                index_misses: ic.misses + lc.misses,
                bitset_bytes: m.index.bitset_bytes,
                label_bytes: m.index.label_bytes,
                label_appends: m.stream.label_appends,
                label_rebuilds: m.stream.label_rebuilds,
                substitutions: m.privacy.substitutions,
                compactions: m.stats.compactions,
                shed: m.resilience.shed,
                deadline_exceeded: m.resilience.deadline_exceeded,
            })
        })
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }

    /// What happened between `earlier` and `self` (gauges included, so
    /// read gauges from a single snapshot instead).
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, u64::saturating_sub)
    }
}

/// Sets the counter-based per-layer metrics: hit ratios, evictions and
/// substitutions over the untraced `window`; builds, index sizes, label
/// work, shed and deadline counts over the whole `run`.
pub fn report_counters(report: &mut Report, window: &Counters, run: &Counters) {
    const MIB: f64 = 1024.0 * 1024.0;
    report.set("cache.hit_ratio", ratio(window.vr_hits, window.vr_lookups));
    report.set("cache.evictions", window.evictions as f64);
    report.set(
        "index.hit_ratio",
        ratio(window.index_hits, window.index_lookups),
    );
    report.set("index.builds", run.index_misses as f64);
    report.set("index.bitset_mb", run.bitset_bytes as f64 / MIB);
    report.set("labels.mb", run.label_bytes as f64 / MIB);
    report.set("labels.appends", run.label_appends as f64);
    report.set("labels.rebuilds", run.label_rebuilds as f64);
    report.set("privacy.substitutions", window.substitutions as f64);
    report.set("durable.compactions", run.compactions as f64);
    report.set("resilience.shed", run.shed as f64);
    report.set("resilience.deadline_exceeded", run.deadline_exceeded as f64);
}
