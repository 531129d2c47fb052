//! Partial-trip lookup: given only a fragment of a journey (a rider's
//! screenshot, a sensor that woke up mid-trip), find the stored trip it
//! came from. Whole-trajectory EDwP penalises the host trip for everything
//! the fragment did not cover; the sub-trajectory mode (`.sub()`,
//! `EDwP_sub` of Sec. IV-B) skips the host's unmatched prefix and suffix
//! for free, so the true host ranks first — served exactly from the
//! TrajTree index, not a linear scan.
//!
//! Run with: `cargo run --release --example partial_trip`

use trajrep::{GenConfig, Metric, Session, TrajGen, TrajStore};

fn main() {
    // A fleet of 400 trips, clustered the way real road traffic is.
    let mut gen = TrajGen::with_config(
        7,
        GenConfig {
            area: 600.0,
            clusters: 6,
            cluster_spread: 8.0,
            ..GenConfig::default()
        },
    );
    let store = TrajStore::from(gen.database(400, 8, 18));
    let session = Session::builder().shards(2).build(store);
    let snap = session.snapshot();
    println!("database: {} trips across 2 shards", snap.len());

    // The probe: the middle half of trip 142, resampled at a different
    // rate and perturbed — a fragment, not the full journey.
    let host_id = 142u32;
    let host = snap.get(host_id);
    let n = host.num_points();
    let fragment = {
        let piece = host.sub_trajectory(n / 4, 3 * n / 4);
        let resampled = gen.resample(&piece, 0.6);
        gen.perturb(&resampled, 0.4)
    };
    println!(
        "probe:    {} of trip {host_id}'s {} samples, distorted",
        fragment.num_points(),
        n
    );

    // Sub-trajectory k-NN straight from the index.
    let sub = session.query(&fragment).sub().collect_stats().knn(5);
    println!("\ntop-5 under EDwP_sub (best-matching portion):");
    for (rank, hit) in sub.neighbors.iter().enumerate() {
        println!(
            "  #{rank} trip {:>3}  sub distance {:>10.2}{}",
            hit.id,
            hit.distance,
            if hit.id == host_id {
                "   <- the host trip"
            } else {
                ""
            }
        );
    }
    assert_eq!(
        sub.neighbors[0].id, host_id,
        "the fragment's host must rank first under EDwP_sub"
    );

    // Exactness: the index answer is the brute-force edwp_sub scan.
    let reference = session.query(&fragment).sub().brute_force().knn(5);
    assert_eq!(sub.neighbors, reference.neighbors, "index diverged");

    // The same fragment end-to-end: the host pays for its unmatched
    // prefix and suffix (clusters are far apart, so it may still *rank*
    // first — but the distance no longer says "this is the same trip").
    let whole = session.query(&fragment).knn(5);
    let host_whole = whole
        .neighbors
        .iter()
        .find(|h| h.id == host_id)
        .map_or(f64::INFINITY, |h| h.distance);
    println!(
        "\nwhole-trajectory EDwP charges the host trip {:.2} for its \
         unmatched portions ({:.0}x the sub distance)",
        host_whole,
        host_whole / sub.neighbors[0].distance.max(1e-12)
    );

    // Work done: the admissible sub-trajectory box bound prunes most of
    // the database before any EDwP_sub evaluation.
    let stats = sub.stats.expect("collect_stats() requested");
    println!(
        "\npruning:  {} of {} trips paid a full EDwP_sub evaluation ({:.0}% skipped)",
        stats.edwp_evaluations,
        stats.db_size,
        stats.pruning_ratio() * 100.0
    );

    // Modifiers compose: normalised metric, range balls, batches.
    let norm = session
        .query(&fragment)
        .sub()
        .metric(Metric::EdwpNormalized)
        .knn(3);
    let ball = session
        .query(&fragment)
        .sub()
        .range(sub.neighbors[2].distance);
    println!(
        "normalised sub top-1: trip {} at {:.4}; sub range ball holds {} trips",
        norm.neighbors[0].id,
        norm.neighbors[0].distance,
        ball.neighbors.len()
    );
}
