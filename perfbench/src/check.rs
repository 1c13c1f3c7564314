//! Output checks: digests of what a workload produced, compared against
//! the references recorded in `perfbench/reference.tsv`, plus the
//! reconciliation identities the layers expose. Every check is one
//! attempted operation; a mismatch or a violated identity is one failed
//! operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// 64-bit FNV-1a over a byte stream — stable across platforms and
/// releases, which is all a reference digest needs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The checks of one run: produced digests and identity outcomes.
#[derive(Debug, Default)]
pub struct Checks {
    digests: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one identity check.
    pub fn expect(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Records the digest of one output item. A repeated item (a later
    /// iteration of the timed body) must reproduce the first digest.
    pub fn digest(&mut self, item: &str, value: u64) {
        match self.digests.get(item) {
            None => {
                self.digests.insert(item.to_string(), value);
            }
            Some(&first) => self.expect(
                &format!("{item} repeats"),
                if first == value {
                    Ok(())
                } else {
                    Err(format!("{value:016x} != first iteration {first:016x}"))
                },
            ),
        }
    }

    /// Compares every produced digest with the reference, and counts
    /// reference items the run did not produce.
    pub fn compare(&mut self, reference: &BTreeMap<String, u64>) {
        let produced = std::mem::take(&mut self.digests);
        for (item, &value) in &produced {
            let outcome = match reference.get(item) {
                Some(&want) if want == value => Ok(()),
                Some(&want) => Err(format!("digest {value:016x} != reference {want:016x}")),
                None => Err("no reference digest recorded".to_string()),
            };
            self.expect(item, outcome);
        }
        for item in reference.keys().filter(|k| !produced.contains_key(*k)) {
            self.expect(item, Err("not produced by this run".to_string()));
        }
        self.digests = produced;
    }

    pub fn digests(&self) -> &BTreeMap<String, u64> {
        &self.digests
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }
}

/// The recorded reference digests, keyed by `(workload, input seed)`.
#[derive(Debug, Default)]
pub struct Reference {
    entries: BTreeMap<(String, u64), BTreeMap<String, u64>>,
}

impl Reference {
    /// Parses `workload\tinput_seed\titem\tdigest_hex` lines (`#` starts
    /// a comment line).
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read reference {}: {e}", path.display()))?;
        let mut reference = Reference::default();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed reference line", path.display(), n + 1);
            let cols: Vec<&str> = line.split('\t').collect();
            let [workload, seed, item, digest] = cols[..] else {
                return Err(bad());
            };
            let seed = seed.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            reference
                .entries
                .entry((workload.to_string(), seed))
                .or_default()
                .insert(item.to_string(), digest);
        }
        Ok(reference)
    }

    pub fn get(&self, workload: &str, seed: u64) -> Option<&BTreeMap<String, u64>> {
        self.entries.get(&(workload.to_string(), seed))
    }

    /// Replaces the digests recorded for `(workload, seed)`.
    pub fn set(&mut self, workload: &str, seed: u64, digests: BTreeMap<String, u64>) {
        self.entries.insert((workload.to_string(), seed), digests);
    }

    /// Mutable access for the self-test's tampering step.
    pub fn get_mut(&mut self, workload: &str, seed: u64) -> Option<&mut BTreeMap<String, u64>> {
        self.entries.get_mut(&(workload.to_string(), seed))
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from(
            "# Reference output digests per (workload, input seed); rewrite with --record.\n",
        );
        for ((workload, seed), items) in &self.entries {
            for (item, digest) in items {
                writeln!(out, "{workload}\t{seed}\t{item}\t{digest:016x}").expect("string write");
            }
        }
        std::fs::write(path, out).map_err(|e| format!("write reference {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn compare_counts_mismatches_and_missing_items() {
        let mut checks = Checks::default();
        checks.digest("a", 1);
        checks.digest("b", 2);
        let reference = BTreeMap::from([
            ("a".to_string(), 1),
            ("b".to_string(), 3),
            ("c".to_string(), 4),
        ]);
        checks.compare(&reference);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
    }

    #[test]
    fn repeated_items_must_agree() {
        let mut checks = Checks::default();
        checks.digest("a", 1);
        checks.digest("a", 1);
        checks.digest("a", 2);
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }
}
