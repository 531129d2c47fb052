//! Seeded inputs. Every workload draws its database, queries and write
//! stream from `traj-gen`, shaped like the `traj-bench` fixtures:
//! clustered trips of 6–16 samples over a 1000×1000 area, starting
//! around the fixtures' 8 cluster centres. The centres — the city — are
//! the same for every seed; the trips, queries and writes are drawn from
//! the `--seed` argument, so the same seed gives the same inputs while a
//! new seed gives new trips on the same map. (Drawing the centres from
//! the seed too makes per-seed cost swing by a third, as clusters happen
//! to crowd or spread out, which would drown any change worth
//! measuring.)

use traj_core::{Point, Trajectory};
use traj_gen::{GenConfig, Rng, TrajGen};

/// Minimum and maximum samples per generated trip.
pub const MIN_PTS: usize = 6;
pub const MAX_PTS: usize = 16;

/// Bytes a user hands over per trajectory sample: `(x, y, t)` as `f64`.
pub const USER_BYTES_PER_POINT: u64 = 24;

/// A sub-seed for one input stream, so streams stay independent of each
/// other and of how many items another stream drew.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

/// The `traj-bench` fixtures' generator seed, which fixes the cluster
/// centres.
const LAYOUT_SEED: u64 = 0xBE9C;

fn config() -> GenConfig {
    GenConfig {
        area: 1000.0,
        clusters: 8,
        cluster_spread: 10.0,
        step: 4.0,
        ..GenConfig::default()
    }
}

/// The cluster centres `TrajGen::with_config(LAYOUT_SEED, config())`
/// draws: uniform within the area less a 15% margin.
fn centers(cfg: &GenConfig) -> Vec<Point> {
    let mut rng = Rng::new(LAYOUT_SEED);
    let margin = cfg.area * 0.15;
    (0..cfg.clusters)
        .map(|_| {
            Point::new(
                rng.range(margin, cfg.area - margin),
                rng.range(margin, cfg.area - margin),
            )
        })
        .collect()
}

/// `count` clustered trips from stream `stream` of `seed`: each starts
/// near a random centre (σ = the cluster spread) and walks 6–16 samples.
pub fn trips(seed: u64, stream: u64, count: usize) -> Vec<Trajectory> {
    let cfg = config();
    let centers = centers(&cfg);
    let mut pick = Rng::new(stream_seed(seed, stream ^ 0x51));
    let mut walk = TrajGen::with_config(stream_seed(seed, stream), cfg.clone());
    (0..count)
        .map(|_| {
            let c = centers[pick.usize_in(0, centers.len() - 1)];
            let start = Point::new(
                (c.x + cfg.cluster_spread * pick.normal()).clamp(0.0, cfg.area),
                (c.y + cfg.cluster_spread * pick.normal()).clamp(0.0, cfg.area),
            );
            walk.random_walk_from(start, pick.usize_in(MIN_PTS, MAX_PTS))
        })
        .collect()
}

/// A lazily drawn, never-repeating sequence of lookups against a fixed
/// database: each is a member picked at random, then distorted.
pub struct QueryStream {
    gen: TrajGen,
    pick: Rng,
}

impl QueryStream {
    pub fn new(seed: u64, stream: u64) -> Self {
        QueryStream {
            gen: TrajGen::new(stream_seed(seed, stream)),
            pick: Rng::new(stream_seed(seed, stream ^ 0xA5A5)),
        }
    }

    /// Index in `0..n` of the member the next lookup targets.
    pub fn pick(&mut self, n: usize) -> usize {
        self.pick.usize_in(0, n - 1)
    }

    /// The paper's "same trip, different sampling rate" lookup: `t`
    /// resampled to 50% and perturbed with σ = 1.
    pub fn resampled(&mut self, t: &Trajectory) -> Trajectory {
        let r = self.gen.resample(t, 0.5);
        self.gen.perturb(&r, 1.0)
    }

    /// A partial trip: the middle half of `t`, perturbed with σ = 1 — the
    /// input of a `.sub()` lookup.
    pub fn partial(&mut self, t: &Trajectory) -> Trajectory {
        let n = t.num_points();
        let piece = t.sub_trajectory(n / 4, (3 * n / 4).max(n / 4 + 1));
        self.gen.perturb(&piece, 1.0)
    }

    /// The raw pick generator, for workload decisions drawn from the
    /// same seed (duplicate positions, operation kinds).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.pick
    }
}

/// User bytes of a set of trajectories (24 B per sample).
pub fn user_bytes<'a>(trajs: impl IntoIterator<Item = &'a Trajectory>) -> u64 {
    trajs
        .into_iter()
        .map(|t| t.num_points() as u64 * USER_BYTES_PER_POINT)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(trips(7, 1, 20), trips(7, 1, 20));
        assert_ne!(trips(7, 1, 20), trips(8, 1, 20));
        let db = trips(7, 1, 20);
        let draw = |seed| {
            let mut q = QueryStream::new(seed, 2);
            (0..5)
                .map(|_| {
                    let i = q.pick(db.len());
                    q.resampled(&db[i])
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        for t in &db {
            assert!((MIN_PTS..=MAX_PTS).contains(&t.num_points()));
        }
    }

    /// The fixed centres are the ones the fixtures' generator draws: every
    /// trip it makes starts within a few spreads of one of them.
    #[test]
    fn layout_matches_the_fixture_generator() {
        let cfg = config();
        let centers = centers(&cfg);
        let mut fixture = TrajGen::with_config(LAYOUT_SEED, cfg.clone());
        for t in fixture.database(200, MIN_PTS, MAX_PTS) {
            let p = t.first().p;
            let near = centers
                .iter()
                .any(|c| (c.x - p.x).hypot(c.y - p.y) < 6.0 * cfg.cluster_spread);
            assert!(near, "fixture trip starts far from every centre");
        }
    }
}
