//! The five workloads: what is preloaded, which ops run, how many.
//!
//! An op script is a pure function of `(workload, seed, scale)`. Op counts
//! are part of a workload's definition: the system is not stationary (every
//! update leaves a dead version behind and nothing vacuums), so throughput
//! over a time window depends on how far the run got. The work is fixed
//! instead, and `--seconds` scales it linearly from the nominal length.

use crate::rng::Rng;

/// The `run_seconds` of `BENCHMARK.json`: the timed seconds, summed over a
/// run's five repetitions, that the nominal op counts take on the
/// reference sandbox. `--seconds` other than this scales the op counts.
pub const NOMINAL_SECONDS: u64 = 12;

pub const MB: usize = 1 << 20;

/// One closed-loop operation. Every workload is built from these three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// [`stat`,] `open`, `read_bulk` of the first `len` bytes, `close`.
    Read { file: u32, len: u32, stat: bool },
    /// `begin`, `open` rw, then per write `lseek` to a chunk boundary and
    /// `write_bulk` of `len` bytes, `close`, `commit`.
    TxnWrite {
        file: u32,
        len: u32,
        /// `(chunk number, payload salt)`.
        writes: Vec<(u32, u64)>,
    },
    /// `begin`, `creat`, `write_bulk` of `len` bytes, `close`, `unlink` of
    /// an earlier (or the same) file, `commit`.
    Churn {
        create: u32,
        len: u32,
        salt: u64,
        unlink: Option<u32>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotSmall,
    SeqRead,
    TxnWrite,
    CreateChurn,
    TwoClientMix,
}

pub const ALL: [Workload; 5] = [
    Workload::HotSmall,
    Workload::SeqRead,
    Workload::TxnWrite,
    Workload::CreateChurn,
    Workload::TwoClientMix,
];

/// Files preloaded into each client's tree before the clock starts.
#[derive(Debug, Clone, Copy)]
pub struct Preload {
    pub files: u32,
    pub size: usize,
    /// Files created per preload transaction.
    pub batch: u32,
}

const HOT_SET: u64 = 96;
/// `create_churn` unlinks the file it created this many ops earlier.
const CHURN_LAG: u32 = 64;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSmall => "hot_small",
            Workload::SeqRead => "seq_read",
            Workload::TxnWrite => "txn_write",
            Workload::CreateChurn => "create_churn",
            Workload::TwoClientMix => "two_client_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::TwoClientMix => 2,
            _ => 1,
        }
    }

    /// Timed ops per client at the nominal run length.
    pub fn nominal_ops(self) -> usize {
        match self {
            Workload::HotSmall => 6000,
            Workload::SeqRead => 40,
            Workload::TxnWrite => 800,
            Workload::CreateChurn => 900,
            Workload::TwoClientMix => 2500,
        }
    }

    /// Timed ops per client for a `--seconds` budget.
    pub fn ops_for(self, seconds: u64) -> usize {
        let n = self.nominal_ops() as u64 * seconds / NOMINAL_SECONDS;
        (n as usize).max(8)
    }

    /// Warm-up ops per client, run (and checked) before the clock starts:
    /// a tenth of the timed count, and long enough that `create_churn` has
    /// reached its steady create-one-unlink-one state.
    pub fn warmup_for(self, timed_ops: usize) -> usize {
        let floor = match self {
            Workload::CreateChurn => CHURN_LAG as usize + 8,
            _ => 4,
        };
        (timed_ops / 10).max(floor)
    }

    pub fn preload(self) -> Preload {
        match self {
            Workload::HotSmall => Preload {
                files: 1100,
                size: 4096,
                batch: 50,
            },
            Workload::SeqRead => Preload {
                files: 24,
                size: MB,
                batch: 1,
            },
            Workload::TxnWrite => Preload {
                files: 8,
                size: MB,
                batch: 1,
            },
            Workload::CreateChurn => Preload {
                files: 1000,
                size: 1024,
                batch: 50,
            },
            Workload::TwoClientMix => Preload {
                files: 400,
                size: 8192,
                batch: 50,
            },
        }
    }

    /// The first `warmup + timed` ops of client `k`. Warm-up is a prefix of
    /// the same stream so `create_churn`'s lagged unlinks line up across the
    /// boundary.
    pub fn script(self, seed: u64, k: usize, total: usize) -> Vec<Op> {
        let mut rng = Rng::lane(seed, 100 + k as u64);
        let pre = self.preload();
        let hot = hot_set(pre.files);
        let chunks_per_mb = (MB - 8192) / inversion::CHUNK_SIZE;
        // Whole-file reads visit the files in shuffled rounds: reading one
        // file twice in a row would find half of it still cached.
        let rounds = match self {
            Workload::SeqRead => shuffled_rounds(&mut rng, pre.files, total),
            _ => Vec::new(),
        };
        (0..total as u32)
            .map(|i| match self {
                Workload::HotSmall => Op::Read {
                    file: hot[rng.below(HOT_SET) as usize],
                    len: 4096,
                    stat: true,
                },
                Workload::SeqRead => Op::Read {
                    file: rounds[i as usize],
                    len: MB as u32,
                    stat: false,
                },
                Workload::TxnWrite => Op::TxnWrite {
                    file: rng.below(pre.files as u64) as u32,
                    len: 8192,
                    writes: (0..8)
                        .map(|_| (rng.below(chunks_per_mb as u64 + 1) as u32, rng.next_u64()))
                        .collect(),
                },
                Workload::CreateChurn => Op::Churn {
                    create: pre.files + i,
                    len: 1024,
                    salt: rng.next_u64(),
                    unlink: (i >= CHURN_LAG).then(|| pre.files + i - CHURN_LAG),
                },
                Workload::TwoClientMix => match rng.below(10) {
                    0..=6 => Op::Read {
                        file: hot[rng.below(HOT_SET) as usize],
                        len: 8192,
                        stat: true,
                    },
                    7..=8 => Op::TxnWrite {
                        file: hot[rng.below(HOT_SET) as usize],
                        len: 8192,
                        writes: vec![(0, rng.next_u64())],
                    },
                    _ => Op::Churn {
                        create: pre.files + i,
                        len: 1024,
                        salt: rng.next_u64(),
                        unlink: Some(pre.files + i),
                    },
                },
            })
            .collect()
    }
}

/// The hot set: [`HOT_SET`] files spread evenly over the preloaded ones. It
/// does not depend on the seed — which pages are hot decides the device
/// counts, and those must compare across seeds; the seed orders the visits.
fn hot_set(files: u32) -> Vec<u32> {
    let n = (HOT_SET as u32).min(files);
    (0..n).map(|i| i * (files / n)).collect()
}

/// `total` draws from `0..n` in which every value comes up once before any
/// comes up twice, and never twice in a row: a fresh shuffle per round.
fn shuffled_rounds(rng: &mut Rng, n: u32, total: usize) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(total + n as usize);
    while out.len() < total {
        let mut round: Vec<u32> = (0..n).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        if n > 1 && out.last() == round.first() {
            round.swap(0, 1);
        }
        out.extend(round);
    }
    out.truncate(total);
    out
}

/// The salt of a preloaded file's initial contents.
pub fn preload_salt(seed: u64, k: usize, file: u32) -> u64 {
    Rng::lane(seed ^ ((k as u64) << 32 | file as u64), 300).next_u64()
}

pub fn client_dir(k: usize) -> String {
    format!("/c{k}")
}

pub fn file_path(k: usize, file: u32) -> String {
    format!("/c{k}/f{file:06}")
}

/// FNV-1a over a canonical encoding of every client's script: two runs did
/// the same work exactly when their hashes match.
pub fn script_hash(scripts: &[Vec<Op>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (k, script) in scripts.iter().enumerate() {
        eat(k as u64);
        for op in script {
            match op {
                Op::Read { file, len, stat } => {
                    eat(1);
                    eat(*file as u64);
                    eat(*len as u64);
                    eat(*stat as u64);
                }
                Op::TxnWrite { file, len, writes } => {
                    eat(2);
                    eat(*file as u64);
                    eat(*len as u64);
                    for (chunk, salt) in writes {
                        eat(*chunk as u64);
                        eat(*salt);
                    }
                }
                Op::Churn {
                    create,
                    len,
                    salt,
                    unlink,
                } => {
                    eat(3);
                    eat(*create as u64);
                    eat(*len as u64);
                    eat(*salt);
                    eat(unlink.map_or(u64::MAX, u64::from));
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripts(w: Workload, seed: u64) -> Vec<Vec<Op>> {
        (0..w.clients()).map(|k| w.script(seed, k, 200)).collect()
    }

    #[test]
    fn same_seed_same_script_different_seed_different_script() {
        for w in ALL {
            let a = script_hash(&scripts(w, 1));
            assert_eq!(a, script_hash(&scripts(w, 1)), "{}", w.name());
            assert_ne!(a, script_hash(&scripts(w, 2)), "{}", w.name());
        }
    }

    #[test]
    fn a_longer_script_extends_a_shorter_one() {
        for w in ALL {
            let long = w.script(9, 0, 120);
            assert_eq!(long[..50], w.script(9, 0, 50)[..], "{}", w.name());
        }
    }

    #[test]
    fn clients_get_different_scripts() {
        let w = Workload::TwoClientMix;
        assert_ne!(w.script(3, 0, 100), w.script(3, 1, 100));
    }

    #[test]
    fn hot_small_stays_inside_its_hot_set() {
        let ops = Workload::HotSmall.script(5, 0, 5000);
        let mut files: Vec<u32> = ops
            .iter()
            .map(|op| match op {
                Op::Read { file, .. } => *file,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files, hot_set(1100));
        assert_eq!(files.len(), HOT_SET as usize);
        assert!(files.iter().all(|f| *f < 1100));
    }

    #[test]
    fn whole_file_reads_go_round_the_files_without_immediate_repeats() {
        let ops = Workload::SeqRead.script(8, 0, 100);
        let files: Vec<u32> = ops
            .iter()
            .map(|op| match op {
                Op::Read {
                    file,
                    len,
                    stat: false,
                } if *len as usize == MB => *file,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(files.windows(2).all(|w| w[0] != w[1]));
        for round in files.chunks(24).filter(|r| r.len() == 24) {
            let mut seen = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..24).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn txn_writes_stay_inside_the_preloaded_file() {
        for op in Workload::TxnWrite.script(11, 0, 500) {
            let Op::TxnWrite { len, writes, .. } = op else {
                panic!()
            };
            assert_eq!(writes.len(), 8);
            for (chunk, _) in writes {
                assert!(chunk as usize * inversion::CHUNK_SIZE + len as usize <= MB);
            }
        }
    }

    #[test]
    fn churn_unlinks_what_it_created_a_lag_ago() {
        let ops = Workload::CreateChurn.script(2, 0, 200);
        for (i, op) in ops.iter().enumerate() {
            let Op::Churn { create, unlink, .. } = op else {
                panic!()
            };
            assert_eq!(*create, 1000 + i as u32);
            assert_eq!(*unlink, (i >= 64).then(|| 1000 + i as u32 - 64));
        }
    }

    #[test]
    fn op_counts_scale_with_seconds() {
        for w in ALL {
            assert_eq!(w.ops_for(NOMINAL_SECONDS), w.nominal_ops());
            assert_eq!(w.ops_for(NOMINAL_SECONDS * 2), w.nominal_ops() * 2);
            assert!(w.ops_for(1) >= 8);
        }
        assert_eq!(Workload::parse("seq_read"), Some(Workload::SeqRead));
        assert_eq!(Workload::parse("nope"), None);
    }
}
