//! What the run measured on: cores, CPU model, SIMD flags, L3 size and
//! commit. Everything comes from CPUID and the checkout itself, so the
//! benchmark reads no file outside its checkout.

use std::path::Path;

#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub l3_bytes: u64,
    pub commit: String,
}

impl Host {
    /// Probes the machine; `checkout` is the repository root.
    pub fn probe(checkout: &Path) -> Self {
        let (cpu_model, l3_bytes) = cpuid_model_and_l3();
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2: simd_flag("avx2"),
            fma: simd_flag("fma"),
            avx512f: simd_flag("avx512f"),
            l3_bytes,
            commit: commit_of(checkout),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"cpu_model\":\"{}\",\"avx2\":{},\"fma\":{},\"avx512f\":{},\"l3_bytes\":{},\"commit\":\"{}\"}}",
            self.cores,
            self.cpu_model.replace(['"', '\\'], ""),
            self.avx2,
            self.fma,
            self.avx512f,
            self.l3_bytes,
            self.commit
        )
    }

    pub fn render(&self) -> String {
        format!(
            "host: {} cores · {} · avx2={} fma={} avx512f={} · L3 {} MiB · commit {}",
            self.cores,
            self.cpu_model,
            self.avx2,
            self.fma,
            self.avx512f,
            self.l3_bytes >> 20,
            self.commit
        )
    }
}

fn simd_flag(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "fma" => std::arch::is_x86_feature_detected!("fma"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

/// CPU brand string (leaves 0x8000_0002..4) and L3 size from the
/// deterministic cache parameters (leaf 4), or `0` when not reported.
#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)]
fn cpuid_model_and_l3() -> (String, u64) {
    use std::arch::x86_64::__cpuid_count;
    // SAFETY: CPUID exists on every x86_64 CPU; leaves above the
    // reported maximum are not queried.
    let cpuid = |leaf: u32, sub: u32| unsafe { __cpuid_count(leaf, sub) };
    let mut model = String::from("unknown");
    if cpuid(0x8000_0000, 0).eax >= 0x8000_0004 {
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002..=0x8000_0004u32 {
            let r = cpuid(leaf, 0);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        model = text.trim_matches(char::from(0)).trim().to_string();
    }
    let mut l3 = 0u64;
    if cpuid(0, 0).eax >= 4 {
        for sub in 0..16 {
            let r = cpuid(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            if (r.eax >> 5) & 0x7 == 3 {
                let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
                let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
                let line = u64::from(r.ebx & 0xfff) + 1;
                let sets = u64::from(r.ecx) + 1;
                l3 = ways * partitions * line * sets;
            }
        }
    }
    (model, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpuid_model_and_l3() -> (String, u64) {
    ("unknown".to_string(), 0)
}

/// The commit checked out at `checkout`, read from `.git` without
/// running git; `unknown` when the checkout is not a repository.
fn commit_of(checkout: &Path) -> String {
    let git = checkout.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
