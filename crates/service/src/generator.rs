//! Seeded open-loop request generation: splitmix64 streams, a YCSB-style
//! Zipfian key sampler over keyspaces of millions, and a configurable
//! read/write mix mapped onto [`StructOp`]s.
//!
//! Everything here is deterministic in the seed so a run is replayable:
//! the same `(seed, keys, theta, read_pct)` produces the same request stream
//! per client, independent of scheduling.

use structs::StructOp;

/// Minimal splitmix64 PRNG — the same finalizer the crash layer uses for its
/// per-pid stream seeds, kept local so the service crate stays deterministic
/// without the (stubbed) `rand` crate.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the next output.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        // Multiply-shift reduction (Lemire); bias is negligible for harness use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// One-time hash of a key (stateless splitmix64 finalizer). A request for key
/// `k` goes to shard `hash_key(k) % shards`, which spreads the Zipfian head
/// across shards instead of concentrating all hot keys on shard 0.
pub fn hash_key(k: u64) -> u64 {
    let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian sampler over `[0, items)` with skew `theta` (YCSB's
/// `ZipfianGenerator` closed form: one `zeta(n, theta)` precomputation, O(1)
/// per sample). `theta == 0` degenerates to the uniform distribution; YCSB's
/// default skew is `0.99`. Rank 0 is the most popular key.
#[derive(Clone, Debug)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipfian {
    /// Build a sampler for `items` keys with skew `theta` (`0.0 <= theta < 1.0`).
    /// The `zeta` precomputation is O(items) — done once, shared by clones.
    pub fn new(items: u64, theta: f64) -> Zipfian {
        assert!(items > 0, "zipfian needs a nonempty keyspace");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2.min(items), theta);
        // Degenerate single-key keyspace: zeta2 == zetan makes the eta
        // denominator 0.0 and the division NaN. Every sample is rank 0
        // regardless, so pin eta to a harmless finite value.
        let eta = if items == 1 {
            0.0
        } else {
            (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        };
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Sample a rank in `[0, items)`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.theta == 0.0 {
            return rng.next_below(self.items);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// The keyspace size.
    pub fn items(&self) -> u64 {
        self.items
    }
}

/// A seeded per-client request stream: Zipfian keys, `read_pct`% membership
/// probes, the rest split evenly between inserts and removes.
#[derive(Clone, Debug)]
pub struct RequestGen {
    rng: SplitMix64,
    zipf: Zipfian,
    read_pct: u32,
}

impl RequestGen {
    /// A stream for one client. Give each client a distinct `seed` (e.g.
    /// `base_seed + client_index`) for independent streams.
    pub fn new(seed: u64, zipf: Zipfian, read_pct: u32) -> RequestGen {
        assert!(read_pct <= 100);
        RequestGen {
            rng: SplitMix64::new(seed),
            zipf,
            read_pct,
        }
    }

    /// The next request in the stream.
    pub fn next_op(&mut self) -> StructOp {
        let key = self.zipf.sample(&mut self.rng);
        let roll = self.rng.next_below(100) as u32;
        if roll < self.read_pct {
            StructOp::Contains(key)
        } else if (roll - self.read_pct) % 2 == 0 {
            StructOp::Insert(key)
        } else {
            StructOp::Remove(key)
        }
    }
}

/// The key a request addresses (service requests are always keyed).
pub fn op_key(op: StructOp) -> u64 {
    match op {
        StructOp::Insert(k) | StructOp::Remove(k) | StructOp::Contains(k) => k,
        other => panic!("service requests are keyed set operations, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_spreads_keys() {
        let shard_of = |k: u64| hash_key(k) % 4;
        let mut hit = [false; 4];
        for k in 0..256u64 {
            let a = shard_of(k);
            assert_eq!(a, shard_of(k));
            hit[a as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 keys must touch all 4 shards");
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1_000_000, 0.99);
        let mut rng = SplitMix64::new(1);
        let mut head = 0usize;
        for _ in 0..10_000 {
            let rank = z.sample(&mut rng);
            assert!(rank < 1_000_000);
            if rank < 10 {
                head += 1;
            }
        }
        // With theta 0.99 over 1M keys, far more than a uniform share of
        // samples must land on the 10 hottest ranks (uniform share: ~0.001%).
        assert!(head > 2_000, "only {head}/10000 samples hit the head");
    }

    #[test]
    fn zipfian_theta_zero_is_roughly_uniform() {
        let z = Zipfian::new(100, 0.0);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min > 500 && max < 2000, "min {min} max {max}");
    }

    #[test]
    fn zipfian_single_key_keyspace_is_finite_and_deterministic() {
        // Regression: items == 1 passed the `items > 0` assert but divided by
        // `1.0 - zeta2/zetan == 0.0`, leaving a NaN eta inside the sampler.
        let z = Zipfian::new(1, 0.99);
        let dbg = format!("{z:?}");
        assert!(!dbg.contains("NaN"), "sampler state must stay finite: {dbg}");
        let mut rng = SplitMix64::new(11);
        for _ in 0..1_000 {
            assert_eq!(z.sample(&mut rng), 0, "the only key is rank 0");
        }
    }

    #[test]
    fn zipfian_head_matches_closed_form() {
        // Empirical head probabilities against the closed form p(rank r) =
        // (1/(r+1)^theta) / zeta(n, theta) for a small keyspace.
        let (items, theta) = (5u64, 0.9f64);
        let zetan: f64 = (1..=items).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let z = Zipfian::new(items, theta);
        let mut rng = SplitMix64::new(17);
        let mut counts = [0u64; 5];
        let n = 200_000u64;
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (rank, &count) in counts.iter().enumerate().take(2) {
            let expected = (1.0 / ((rank + 1) as f64).powf(theta)) / zetan;
            let observed = count as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.02,
                "rank {rank}: observed {observed:.4} vs closed form {expected:.4}"
            );
        }
    }

    #[test]
    fn request_mix_respects_read_fraction() {
        let zipf = Zipfian::new(1000, 0.5);
        let mut gen = RequestGen::new(9, zipf, 80);
        let (mut reads, mut writes) = (0, 0);
        for _ in 0..10_000 {
            match gen.next_op() {
                StructOp::Contains(_) => reads += 1,
                StructOp::Insert(_) | StructOp::Remove(_) => writes += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let frac = reads as f64 / (reads + writes) as f64;
        assert!((0.75..0.85).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn streams_are_replayable_and_distinct_per_seed() {
        let zipf = Zipfian::new(1000, 0.9);
        let stream = |seed| {
            let mut g = RequestGen::new(seed, zipf.clone(), 50);
            (0..50).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }
}
