//! Host CPU time and peak memory of the processes under test, read from
//! Linux `/proc`.

/// Clock ticks per second of the `/proc/*/stat` time fields: Linux fixes
/// `USER_HZ` at 100 on every architecture it exposes to user space.
pub const TICKS_PER_SEC: f64 = 100.0;

/// The whitespace-separated fields of a `/proc/<pid>/stat` line after the
/// parenthesised command name (which may itself hold spaces and
/// parentheses, so the split starts after the *last* `)`). Index 0 is
/// field 3 of proc(5), the process state.
fn stat_fields(stat: &str) -> Option<Vec<&str>> {
    let (_, rest) = stat.rsplit_once(')')?;
    Some(rest.split_whitespace().collect())
}

/// proc(5) field `n` (1-based) of a stat line as a tick count.
fn stat_ticks(fields: &[&str], n: usize) -> Option<u64> {
    fields.get(n - 3)?.parse().ok()
}

/// `cutime + cstime` (fields 16 and 17): CPU ticks of every child this
/// process has waited for, user plus system.
pub fn children_cpu_ticks(stat: &str) -> Option<u64> {
    let f = stat_fields(stat)?;
    Some(stat_ticks(&f, 16)? + stat_ticks(&f, 17)?)
}

/// `utime + stime` (fields 14 and 15): CPU ticks of the process itself,
/// all threads, user plus system.
pub fn own_cpu_ticks(stat: &str) -> Option<u64> {
    let f = stat_fields(stat)?;
    Some(stat_ticks(&f, 14)? + stat_ticks(&f, 15)?)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`, in kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// CPU ticks of this process's reaped children so far.
pub fn self_children_cpu_ticks() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    children_cpu_ticks(&text).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// CPU ticks process `pid` has used so far.
pub fn pid_cpu_ticks(pid: u32) -> Result<u64, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    own_cpu_ticks(&text).ok_or_else(|| format!("malformed /proc/{pid}/stat"))
}

/// Peak resident set of process `pid` so far, in kB; `None` once the
/// process has exited (a zombie's status has no memory lines).
pub fn pid_vm_hwm_kb(pid: u32) -> Option<u64> {
    vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A real /proc/<pid>/stat line whose command name holds a space and a
    // parenthesis; utime=11 stime=12 cutime=1234 cstime=56.
    const STAT: &str = "4242 (all exp) (x)) S 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                        11 12 1234 56 20 0 3 0 123456 1048576 300 18446744073709551615";

    #[test]
    fn children_cpu_is_cutime_plus_cstime() {
        assert_eq!(children_cpu_ticks(STAT), Some(1234 + 56));
    }

    #[test]
    fn own_cpu_is_utime_plus_stime() {
        assert_eq!(own_cpu_ticks(STAT), Some(11 + 12));
    }

    #[test]
    fn malformed_stat_lines_are_none() {
        assert_eq!(children_cpu_ticks("no parenthesis here"), None);
        assert_eq!(children_cpu_ticks("1 (x) S 1 2"), None, "too few fields");
        assert_eq!(own_cpu_ticks("1 (x) S 1 2 3 4 5 6 7 8 9 10 x y"), None);
    }

    #[test]
    fn live_stat_of_this_process_parses() {
        assert!(self_children_cpu_ticks().is_ok());
        assert!(pid_cpu_ticks(std::process::id()).is_ok());
        assert!(pid_vm_hwm_kb(std::process::id()).unwrap() > 0);
    }

    #[test]
    fn vm_hwm_reads_the_kb_value() {
        let status = "Name:\tperf\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }
}
