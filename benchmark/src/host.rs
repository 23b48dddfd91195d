//! What the host tells us about this process: CPU time, peak memory,
//! core count and the cost of reading the clock.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the 64-bit Linux timespec layout");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// libc's `clock_gettime`; std links libc already.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    /// glibc's `mallopt`.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Fix glibc malloc's two *dynamic* thresholds, first thing in `main`.
///
/// Left alone, each `free` of a memory-mapped block raises the mmap
/// threshold to that block's size, and from then on the growing sample
/// vectors of a rep are reallocated inside the heap, whose high-water
/// mark depends on how their growth happened to interleave:
/// `single_write90_faulted` peaked at 24, 30, 32, 35 or 37 MiB depending
/// on the seed (the same for one seed), an inter-quartile spread of up to
/// 21 % that is allocator history, not the simulator. With the mmap
/// threshold fixed at 1 MiB every large buffer is its own mapping, as in a
/// process that makes one run, and `peak_rss_mb` is the pages a run
/// touches (21.9–22.9 MiB on that workload whatever the seed). The trim
/// threshold is fixed at the ceiling of glibc's own dynamic value, 64 MiB,
/// where the large workloads drive it anyway; with trimming off instead,
/// `single_checked_t10`'s heap crept from 181 to 204 MiB over 50 reps on
/// some seeds.
///
/// # Errors
///
/// A description when glibc refuses either value.
pub fn fix_malloc_thresholds() -> Result<(), String> {
    // SAFETY: mallopt only stores two integers in malloc's parameters; it
    // is called before any other thread exists.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
    };
    if ok {
        Ok(())
    } else {
        Err("mallopt refused M_MMAP_THRESHOLD / M_TRIM_THRESHOLD".into())
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time this process has used so far — all threads,
/// live and joined — in nanoseconds.
///
/// `/proc/self/stat`'s `utime + stime` is the same quantity in 10 ms
/// ticks, which is 2 % of one rep: too coarse for a per-rep median, and
/// the median over reps is what keeps `cpu_ns_per_commit` as steady as
/// the wall metric on a host whose reps are bimodal.
///
/// # Errors
///
/// A description when the kernel refuses the clock.
pub fn process_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid-out timespec for
    // the duration of the call, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
///
/// # Errors
///
/// A description when `/proc/self/status` has no parsable `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("VmHWM: {e}"))
}

/// Cores this process may run on.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Threads to give a workload that asks for `wanted`: never more than the
/// host has cores, so a 1-core host runs the 2-thread workloads on one
/// thread (and says so) instead of recording time-slicing as scaling.
#[must_use]
pub fn threads_for(wanted: usize) -> usize {
    wanted.min(cores()).max(1)
}

/// Mean cost of one `Instant::now()` in nanoseconds — what a span's two
/// clock reads add to the span around them.
#[must_use]
pub fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(start).as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tqcbench\nVmPeak:\t  300000 kB\nVmHWM:\t  186088 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Ok(186_088));
        assert!(parse_vm_hwm_kib("Name:\tx\n").is_err());
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib().expect("procfs") > 0.1);
        let before = process_cpu_ns().expect("the clock is readable");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(
            process_cpu_ns().expect("the clock is readable") > before,
            "{x}"
        );
        assert!(cores() >= 1);
        assert_eq!(threads_for(1), 1);
        assert!(threads_for(2) <= 2);
        assert!(timer_ns() > 0.0);
    }
}
