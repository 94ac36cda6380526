//! Provenance: the host and build facts every result line is tagged with.

use std::path::{Path, PathBuf};

/// The repository root (the parent of this package's directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark lives in the repo").into()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn isa() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut isa = String::from("x86_64");
        for (name, on) in [
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                isa.push('+');
                isa.push_str(name);
            }
        }
        isa
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an export that has no repository at all).
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// FNV-1a digest of the library sources (`crates/**`, manifests and lock
/// file), so a result can be tied to the code it measured even where no
/// commit id is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(path.extension().and_then(|e| e.to_str()), Some("rs" | "toml")) {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        let body = std::fs::read(&path).unwrap_or_default();
        for byte in rel.as_bytes().iter().chain(&body) {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".into())
}

/// One JSON object of host and build facts.
/// `rayon_pinned` says whether the benchmark set `RAYON_NUM_THREADS`
/// itself (it was unset in the environment).
pub fn facts_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    rayon_pinned: bool,
    why: &str,
) -> String {
    let root = repo_root();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", workload.to_string()),
        ("why", why.to_string()),
        ("isa", isa()),
        ("gemm_kernel", enhancenet_tensor::kernel::selected_kernel().name().to_string()),
        ("rayon_num_threads", env_or_unset("RAYON_NUM_THREADS")),
        ("enhancenet_force_scalar", env_or_unset("ENHANCENET_FORCE_SCALAR")),
        ("commit", commit(&root)),
        ("source_digest", source_digest(&root)),
    ];
    let mut out = format!(
        "{{\"host\": {{\"cores\": {cores}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"rayon_pinned_by_benchmark\": {rayon_pinned}"
    );
    for (key, value) in fields {
        out.push_str(&format!(", \"{key}\": {}", crate::report::json_string(&value)));
    }
    out.push_str("}}");
    out
}
