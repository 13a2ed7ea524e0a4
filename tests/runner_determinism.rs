//! End-to-end guarantees of the run engine: results are byte-identical at
//! any thread count, and artifacts survive a JSON round trip.

use agile_paging::experiments;
use agile_paging::{
    AgileOptions, Json, PlanOptions, Profile, RunOutcome, RunRequest, Service, SystemConfig,
    Technique,
};

fn run_batch(threads: usize) -> Vec<RunOutcome> {
    let mut requests = Vec::new();
    for technique in [
        Technique::Native,
        Technique::Nested,
        Technique::Shadow,
        Technique::Agile(AgileOptions::default()),
    ] {
        for profile in [Profile::Astar, Profile::Memcached] {
            requests.push(
                RunRequest::new(
                    SystemConfig::new(technique),
                    agile_paging::profile(profile, 4_000),
                )
                .with_warmup(1_000),
            );
        }
    }
    let opts = PlanOptions {
        threads,
        seed_base: Some(0xd15c),
        ..PlanOptions::default()
    };
    Service::run_all(opts, requests)
}

/// The acceptance bar for the run engine: per-run stats from an 8-thread
/// execution are byte-identical to a serial one.
#[test]
fn plans_are_thread_count_invariant() {
    let artifacts = |threads| {
        run_batch(threads)
            .into_iter()
            .map(RunOutcome::into_artifact)
            .collect::<Vec<_>>()
    };
    let serial = artifacts(1);
    let fanned = artifacts(8);
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.fingerprint(), b.fingerprint(), "{} diverged", a.label);
    }
}

/// The same invariance holds for a long-running service: per-request
/// artifact *bytes* are identical no matter how many workers raced over
/// the queue (and therefore no matter which worker ran which job).
#[test]
fn service_artifacts_are_shard_count_invariant() {
    let render = |shards: usize| {
        let service = Service::new(PlanOptions {
            threads: shards,
            seed_base: Some(0xd15c),
            ..PlanOptions::default()
        });
        let requests: Vec<RunRequest> = [
            Technique::Native,
            Technique::Nested,
            Technique::Shadow,
            Technique::Agile(AgileOptions::default()),
        ]
        .into_iter()
        .map(|t| {
            RunRequest::new(
                SystemConfig::new(t),
                agile_paging::profile(Profile::Astar, 3_000),
            )
            .with_warmup(500)
        })
        .collect();
        let ids = service.submit_all(requests);
        let docs: Vec<String> = ids
            .into_iter()
            .map(|id| {
                service
                    .wait(id)
                    .artifact()
                    .expect("run completes")
                    .deterministic_json()
                    .render()
            })
            .collect();
        service.shutdown();
        docs
    };
    let one = render(1);
    let two = render(2);
    let eight = render(8);
    assert_eq!(one, two, "2-shard artifacts diverged from serial");
    assert_eq!(one, eight, "8-shard artifacts diverged from serial");
}

/// An experiment fanned across threads is also invariant end to end — the
/// full deterministic JSON document matches, not just per-run stats.
#[test]
fn fig5_fingerprints_survive_fanout() {
    let serial = experiments::fig5(3_000, Some(&[Profile::Gcc]), 1);
    let fanned = experiments::fig5(3_000, Some(&[Profile::Gcc]), 8);
    let prints = |run: &experiments::ExperimentRun<experiments::Fig5Row>| {
        run.artifacts
            .iter()
            .map(agile_paging::RunArtifact::fingerprint)
            .collect::<Vec<_>>()
    };
    assert_eq!(prints(&serial), prints(&fanned));
    assert_eq!(serial.text, fanned.text);
}

/// Artifacts serialize to JSON and parse back to the same document, with
/// the schema tag and stats intact.
#[test]
fn artifact_json_round_trips() {
    let artifact = RunRequest::new(
        SystemConfig::new(Technique::Agile(AgileOptions::default())),
        agile_paging::profile(Profile::Astar, 3_000),
    )
    .with_warmup(500)
    .with_seed(42)
    .run();
    let doc = artifact.to_json();
    let text = doc.pretty();
    let parsed = Json::parse(&text).expect("artifact JSON parses");
    assert_eq!(parsed.render(), doc.render());
    assert_eq!(
        parsed.get("schema").and_then(|s| s.as_str()),
        Some(agile_paging::runner::ARTIFACT_SCHEMA)
    );
    assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(42));
    let accesses = parsed
        .get("stats")
        .and_then(|s| s.get("accesses"))
        .and_then(Json::as_u64);
    assert_eq!(accesses, Some(artifact.stats.accesses));
}
