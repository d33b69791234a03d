//! Measurement plumbing: process resource usage, the allocator, sample
//! quantiles, and registry deltas.

use cqfit_obs::{HistogramSnapshot, Registry, HISTOGRAM_BUCKETS};

/// Process-wide CPU time and context switches (`getrusage`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub longs: [i64; 14],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Current process usage; zeroes where the platform offers no `getrusage`.
pub fn usage() -> Usage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ru = ffi::Rusage::default();
        // SAFETY: `ru` is a properly aligned, writable `struct rusage` of
        // the 64-bit Linux layout, and RUSAGE_SELF (0) is a valid `who`.
        let rc = unsafe { ffi::getrusage(0, &mut ru) };
        if rc == 0 {
            let secs = |t: &ffi::Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
            return Usage {
                user_s: secs(&ru.utime),
                sys_s: secs(&ru.stime),
                // ru_nvcsw and ru_nivcsw are the last two longs.
                ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
            };
        }
    }
    Usage::default()
}

/// Peak resident set size of this process image, bytes: `VmHWM` of
/// `/proc/self/status` (0 where there is none).  Unlike `ru_maxrss`, it
/// does not carry over the peak of the process that forked this one
/// (`cargo run`, for one).
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Keeps glibc to one malloc arena.  Otherwise every short-lived hom
/// worker thread may open an arena of its own, and peak RSS depends on how
/// many happened to run at once rather than on what the program keeps.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only changes allocator tuning; it is called
        // before the process starts any other thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Pins the process to the lowest CPU it may run on and returns that CPU
/// (`None` where the platform offers no affinity call).  Call it before the
/// process starts any other thread: threads inherit the mask they are
/// created with.
///
/// On a VM whose host is shared, waking a thread on another vCPU waits for
/// the host to schedule that vCPU, and that wait sets much of a served
/// request's latency: unpinned, `qbe_fit` ran at 5k–10k ops/s from run to
/// run on the same seed, pinned at 22k–24k.  On one CPU,
/// `available_parallelism` reads 1, so the hom batch and the engine's batch
/// pool run their work on the calling thread or one worker.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // `cpu_set_t`: 1024 bits.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable `cpu_set_t` of `size` bytes, and pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().position(|&w| w != 0)?;
        let cpu = word * 64 + mask[word].trailing_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << (cpu % 64);
        // SAFETY: as above; `one` is a readable `cpu_set_t` of `size` bytes.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Linear-interpolated quantile of samples (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Sub-buckets per power of two of [`Samples`].
const SUB: usize = 128;

/// Latency samples in fixed memory: log-linear buckets, [`SUB`] per power
/// of two of the value in thousandths (under 1% error), so a run's memory
/// does not grow with how many ops it completes.
#[derive(Debug, Clone)]
pub struct Samples {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            buckets: vec![0; 64 * SUB],
            count: 0,
        }
    }
}

impl Samples {
    fn bucket(v: f64) -> usize {
        let i = (v.max(0.0) * 1e3) as u64 + 1;
        let octave = 63 - i.leading_zeros() as usize;
        let sub = (((i - (1 << octave)) as u128 * SUB as u128) >> octave) as usize;
        octave * SUB + sub
    }

    /// The value range `[lo, hi)` of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        let (octave, sub) = (b / SUB, b % SUB);
        let base = (1u64 << octave) as f64;
        let at = |s: usize| (base * (1.0 + s as f64 / SUB as f64) - 1.0) / 1e3;
        (at(sub), at(sub + 1))
    }

    /// Records `n` samples of value `v`.
    pub fn push_n(&mut self, v: f64, n: u64) {
        self.buckets[Self::bucket(v)] += n;
        self.count += n;
    }

    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.push_n(v, 1);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Quantile `q`, interpolated inside the bucket holding the rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 > rank {
                let (lo, hi) = Self::range(b);
                return lo + (hi - lo) * ((rank - seen as f64 + 0.5) / n as f64).clamp(0.0, 1.0);
            }
            seen += n;
        }
        0.0
    }
}

/// Slices of a timed window.
pub const SLICES: usize = 12;

/// The timed window cut into [`SLICES`] equal slices.  Every timed sample
/// and op lands in the slice it completed in, and a reported figure is the
/// trimmed mean over slices of that slice's figure: the mean of the middle
/// two thirds, leaving out the sixth of the slices with the highest figures
/// and the sixth with the lowest.
///
/// A shared host switches the program between a fast and a slow speed
/// every few seconds (`cold_recovery`'s restarts took 11–13 ms in some
/// slices of a run and 17–19 ms in others).  A median over slices then
/// jumps from one speed to the other as a run's share of slow slices
/// crosses a half; the trimmed mean moves in step with the share, and still
/// leaves out a slice that one stall spoiled.
#[derive(Debug)]
pub struct Window {
    begun: Option<std::time::Instant>,
    slice_s: f64,
    reads: Vec<Samples>,
    writes: Vec<Samples>,
    recovery: Vec<Samples>,
    ops: Vec<u64>,
    busy_s: Vec<f64>,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            begun: None,
            slice_s: 1.0,
            reads: vec![Samples::default(); SLICES],
            writes: vec![Samples::default(); SLICES],
            recovery: vec![Samples::default(); SLICES],
            ops: vec![0; SLICES],
            busy_s: vec![0.0; SLICES],
        }
    }
}

impl Window {
    /// Starts a window of `seconds`.
    pub fn start(&mut self, seconds: f64) {
        self.begun = Some(std::time::Instant::now());
        self.slice_s = seconds / SLICES as f64;
    }

    fn slice(&self) -> usize {
        let elapsed = self.begun.map_or(0.0, |b| b.elapsed().as_secs_f64());
        ((elapsed / self.slice_s) as usize).min(SLICES - 1)
    }

    /// Records a question latency, µs.
    pub fn read(&mut self, us: f64) {
        let i = self.slice();
        self.reads[i].push(us);
    }

    /// Records `n` mutation ack latencies, µs.
    pub fn write_n(&mut self, us: f64, n: u64) {
        let i = self.slice();
        self.writes[i].push_n(us, n);
    }

    /// Records a restart latency, ms.
    pub fn restart(&mut self, ms: f64) {
        let i = self.slice();
        self.recovery[i].push(ms);
    }

    /// Counts `n` completed ops of `ops_per_s`.
    pub fn ops(&mut self, n: u64) {
        let i = self.slice();
        self.ops[i] += n;
    }

    /// Adds time that `ops_per_s` divides by.
    pub fn busy(&mut self, d: std::time::Duration) {
        let i = self.slice();
        self.busy_s[i] += d.as_secs_f64();
    }

    /// Ops counted over the whole window.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Samples of each kind over the whole window: reads, writes, restarts.
    pub fn counts(&self) -> (u64, u64, u64) {
        let n = |v: &[Samples]| v.iter().map(Samples::len).sum();
        (n(&self.reads), n(&self.writes), n(&self.recovery))
    }

    /// The mean of the middle two thirds of the slices' figures.
    fn trimmed_mean(per_slice: impl Iterator<Item = Option<f64>>) -> f64 {
        let mut values: Vec<f64> = per_slice.flatten().collect();
        values.sort_by(f64::total_cmp);
        let cut = values.len() / 6;
        let kept = &values[cut..values.len() - cut];
        ratio(kept.iter().sum(), kept.len() as f64)
    }

    fn sliced_quantile(slices: &[Samples], q: f64) -> f64 {
        Self::trimmed_mean(slices.iter().map(|s| (s.len() > 0).then(|| s.quantile(q))))
    }

    /// Trimmed mean over slices of the slice's read quantile `q`.
    pub fn read_quantile(&self, q: f64) -> f64 {
        Self::sliced_quantile(&self.reads, q)
    }

    /// Trimmed mean over slices of the slice's write quantile `q`.
    pub fn write_quantile(&self, q: f64) -> f64 {
        Self::sliced_quantile(&self.writes, q)
    }

    /// Trimmed mean over slices of the slice's restart quantile `q`.
    pub fn restart_quantile(&self, q: f64) -> f64 {
        Self::sliced_quantile(&self.recovery, q)
    }

    /// One line per slice with the figures the trimmed mean is taken over:
    /// ops per busy second, then the read, write and restart quantiles the
    /// end-to-end metrics name.
    pub fn slice_lines(&self) -> Vec<String> {
        (0..SLICES)
            .map(|i| {
                let rate = ratio(self.ops[i] as f64, self.busy_s[i]);
                let (r, w, c) = (&self.reads[i], &self.writes[i], &self.recovery[i]);
                format!(
                    "slice {i}: ops_per_s={rate:.1} read_p50_us={:.2} read_p90_us={:.2} write_p50_us={:.2} write_p95_us={:.2} recovery_p50_ms={:.3} recovery_p90_ms={:.3}",
                    r.quantile(0.5),
                    r.quantile(0.9),
                    w.quantile(0.5),
                    w.quantile(0.95),
                    c.quantile(0.5),
                    c.quantile(0.9)
                )
            })
            .collect()
    }

    /// Trimmed mean over slices of ops per busy second.
    pub fn rate(&self) -> f64 {
        Self::trimmed_mean(
            self.ops
                .iter()
                .zip(&self.busy_s)
                .map(|(&n, &s)| (s > 0.0).then(|| n as f64 / s)),
        )
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A histogram delta: bucket counts, sample count and sum.
#[derive(Debug, Clone)]
pub struct Hist {
    buckets: [u64; HISTOGRAM_BUCKETS],
    /// Samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Hist {
    fn of(s: &HistogramSnapshot) -> Hist {
        Hist {
            buckets: s.buckets,
            count: s.count,
            sum: s.sum,
        }
    }

    fn combine(&mut self, other: &Hist, sign: i64) {
        let f = |a: u64, b: u64| (a as i64 + sign * b as i64).max(0) as u64;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a = f(*a, b);
        }
        self.count = f(self.count, other.count);
        self.sum = f(self.sum, other.sum);
    }

    /// Mean sample.
    pub fn mean(&self) -> f64 {
        ratio(self.sum as f64, self.count as f64)
    }

    /// Quantile `q`, interpolated inside the log₂ bucket holding the rank
    /// (bucket `i > 0` holds the values of bit length `i`).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                let width = lo;
                return lo + width * ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
            }
            seen += n;
        }
        0.0
    }
}

/// The registry figures the per-layer table reads, as a delta-able value.
#[derive(Debug, Clone, Default)]
pub struct Reg {
    pub hom_hits: u64,
    pub hom_misses: u64,
    pub core_hits: u64,
    pub core_misses: u64,
    pub engine_requests: u64,
    pub memo_replays: u64,
    pub appends_acked: u64,
    pub compactions: u64,
    pub fit_ns: Hist,
    pub server_request_ns: Hist,
    pub server_batch_depth: Hist,
    pub append_ns: Hist,
    pub commit_wait_ns: Hist,
    pub fsync_ns: Hist,
    pub batch_records: Hist,
}

impl Reg {
    /// Reads a registry.
    pub fn of(r: &Registry) -> Reg {
        Reg {
            hom_hits: r.hom_hits.get(),
            hom_misses: r.hom_misses.get(),
            core_hits: r.core_hits.get(),
            core_misses: r.core_misses.get(),
            engine_requests: r.engine_requests.get(),
            memo_replays: r.engine_memo_replays.get(),
            appends_acked: r.store_appends_acked.get(),
            compactions: r.store_compactions.get(),
            fit_ns: Hist::of(&r.engine_fit_ns.snapshot()),
            server_request_ns: Hist::of(&r.server_request_ns.snapshot()),
            server_batch_depth: Hist::of(&r.server_batch_depth.snapshot()),
            append_ns: Hist::of(&r.store_append_ns.snapshot()),
            commit_wait_ns: Hist::of(&r.store_commit_wait_ns.snapshot()),
            fsync_ns: Hist::of(&r.store_fsync_ns.snapshot()),
            batch_records: Hist::of(&r.store_batch_records.snapshot()),
        }
    }

    /// `self += sign * other`, field by field.
    fn combine(&mut self, o: &Reg, sign: i64) {
        let f = |a: &mut u64, b: u64| *a = (*a as i64 + sign * b as i64).max(0) as u64;
        f(&mut self.hom_hits, o.hom_hits);
        f(&mut self.hom_misses, o.hom_misses);
        f(&mut self.core_hits, o.core_hits);
        f(&mut self.core_misses, o.core_misses);
        f(&mut self.engine_requests, o.engine_requests);
        f(&mut self.memo_replays, o.memo_replays);
        f(&mut self.appends_acked, o.appends_acked);
        f(&mut self.compactions, o.compactions);
        self.fit_ns.combine(&o.fit_ns, sign);
        self.server_request_ns.combine(&o.server_request_ns, sign);
        self.server_batch_depth.combine(&o.server_batch_depth, sign);
        self.append_ns.combine(&o.append_ns, sign);
        self.commit_wait_ns.combine(&o.commit_wait_ns, sign);
        self.fsync_ns.combine(&o.fsync_ns, sign);
        self.batch_records.combine(&o.batch_records, sign);
    }

    /// Adds `other`.
    pub fn add(&mut self, other: &Reg) {
        self.combine(other, 1);
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Reg) -> Reg {
        let mut d = self.clone();
        d.combine(earlier, -1);
        d
    }
}

/// 64-bit FNV-1a, for digests of inputs and answers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}
