//! Integration tests of the declarative Scenario API: serde round-trips
//! (TOML and JSON), sweep-axis expansion, registry resolution errors, and
//! the determinism of the parallel batch runner.

use tbp_core::experiments::THRESHOLD_SWEEP;
use tbp_core::policy::DvfsOnlyPolicy;
use tbp_core::scenario::{load_dir, PolicyRegistry, Runner, ScenarioSpec, SweepSpec, WorkloadDecl};
use tbp_core::SimError;

use tbp_thermal::package::PackageKind;

fn full_spec() -> ScenarioSpec {
    ScenarioSpec::new("round-trip")
        .with_description("every section populated")
        .with_package(PackageKind::HighPerformance)
        .with_policy("stop-and-go", 2.5)
        .with_workload(WorkloadDecl::sdr_with_queue(11))
        .with_schedule(1.5, 3.0)
        .with_sweep(
            SweepSpec::default()
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_thresholds([1.0, 2.0])
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_queue_capacities([4, 11]),
        )
}

#[test]
fn toml_round_trip_preserves_every_field() {
    let spec = full_spec();
    let text = spec.to_toml_string();
    let back = ScenarioSpec::from_toml_str(&text).expect("serialized spec parses");
    assert_eq!(back, spec);
    // And a second serialization is textually stable.
    assert_eq!(back.to_toml_string(), text);
}

#[test]
fn json_round_trip_preserves_every_field() {
    let spec = full_spec();
    let text = spec.to_json_string();
    let back = ScenarioSpec::from_json_str(&text).expect("serialized spec parses");
    assert_eq!(back, spec);
}

#[test]
fn shipped_scenario_files_parse_and_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let specs = load_dir(&dir).expect("scenarios/ directory loads");
    assert_eq!(
        specs.len(),
        10,
        "seven paper scenarios, two cross-workload ones, one phased"
    );
    for spec in &specs {
        let text = spec.to_toml_string();
        let back = ScenarioSpec::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("round-trip of `{}` failed: {e}", spec.name));
        assert_eq!(
            &back, spec,
            "round-trip of `{}` changed the spec",
            spec.name
        );
    }
    let shipped_names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    assert!(shipped_names.contains(&"video-analytics"));
    assert!(shipped_names.contains(&"dag-sweep"));
}

#[test]
fn third_party_workloads_run_from_toml_through_the_runner() {
    use tbp_streaming::workloads::{
        GeneratedWorkload, SyntheticGenerator, WorkloadGenerator, WorkloadParams, WorkloadRegistry,
    };
    struct Renamed;
    impl WorkloadGenerator for Renamed {
        fn name(&self) -> &str {
            "my-workload"
        }
        fn generate(
            &self,
            params: &WorkloadParams,
        ) -> Result<GeneratedWorkload, tbp_streaming::StreamError> {
            SyntheticGenerator.generate(params)
        }
    }
    let spec = ScenarioSpec::from_toml_str(
        r#"
        name = "custom"

        [workload]
        generator = "my-workload"
        seed = 5

        [schedule]
        warmup = 0.2
        duration = 0.4
        "#,
    )
    .expect("valid TOML");
    // Without the hook the name does not resolve…
    let err = Runner::new().run_spec(&spec).unwrap_err();
    assert!(err.to_string().contains("my-workload"), "{err}");
    // …with it, the scenario runs and the report carries the custom label.
    let mut registry = WorkloadRegistry::with_builtins();
    registry.register(Renamed);
    let batch = Runner::new()
        .with_workload_registry(registry)
        .run_spec(&spec)
        .expect("custom workload runs");
    assert_eq!(batch.reports[0].workload.as_deref(), Some("my-workload"));
}

#[test]
fn cross_workload_sweeps_run_and_label_their_reports() {
    use tbp_core::scenario::WorkloadKind;
    let spec = ScenarioSpec::new("matrix")
        .with_schedule(0.3, 0.6)
        .with_sweep(
            SweepSpec::default()
                .with_workloads([
                    WorkloadKind::Sdr,
                    WorkloadKind::Synthetic,
                    WorkloadKind::VideoAnalytics,
                    WorkloadKind::Dag,
                ])
                .with_policies(["thermal-balancing", "dvfs-only"]),
        );
    let batch = Runner::new().run_spec(&spec).expect("matrix runs");
    assert_eq!(batch.len(), 8);
    let labels: Vec<&str> = batch
        .reports
        .iter()
        .filter_map(|r| r.workload.as_deref())
        .collect();
    assert_eq!(
        labels,
        vec![
            "sdr",
            "sdr",
            "synthetic",
            "synthetic",
            "video-analytics",
            "video-analytics",
            "dag",
            "dag"
        ]
    );
    // Pipeline workloads deliver frames; the flat synthetic one does not.
    for report in &batch.reports {
        let summary = report.summary().expect("simulation outcome");
        match report.workload.as_deref() {
            Some("synthetic") => assert_eq!(summary.qos.frames_delivered, 0),
            _ => assert!(summary.qos.frames_delivered > 0),
        }
    }
    // The workload column lands in the CSV.
    let csv = batch.to_csv();
    assert!(csv.lines().next().unwrap().contains(",workload,"));
    assert!(csv.contains("video-analytics"));
}

#[test]
fn sweep_expansion_counts_multiply_across_axes() {
    let spec = full_spec();
    // 2 packages × 2 policies × 2 thresholds × 2 queues.
    assert_eq!(spec.expand().len(), 16);
    let sweep = spec.sweep.clone().unwrap();
    assert_eq!(sweep.cardinality(), 16);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let figures = load_dir(&dir).expect("scenarios/ directory loads");
    let threshold_sweeps: Vec<_> = figures
        .iter()
        .filter(|s| s.name.starts_with("threshold-sweep"))
        .collect();
    assert_eq!(threshold_sweeps.len(), 2);
    for spec in threshold_sweeps {
        assert_eq!(spec.expand().len(), 3 * THRESHOLD_SWEEP.len());
    }
}

#[test]
fn unknown_policy_is_a_structured_error() {
    let spec = ScenarioSpec::new("bad").with_policy("does-not-exist", 1.0);
    match Runner::new().run_spec(&spec) {
        Err(SimError::UnknownPolicy { name, known }) => {
            assert_eq!(name, "does-not-exist");
            assert!(known.contains(&"thermal-balancing".to_string()));
        }
        Err(other) => panic!("expected UnknownPolicy, got {other:?}"),
        Ok(_) => panic!("unknown policy must not run"),
    }
}

#[test]
fn third_party_policies_run_through_a_custom_registry() {
    let mut registry = PolicyRegistry::with_builtins();
    registry.register("noop", |_| Ok(Box::new(DvfsOnlyPolicy::new())));
    let spec = ScenarioSpec::new("custom")
        .with_package(PackageKind::HighPerformance)
        .with_policy("noop", 2.0)
        .with_schedule(0.5, 1.0);
    let batch = Runner::new()
        .with_registry(registry)
        .run_spec(&spec)
        .expect("custom policy runs");
    let summary = batch.reports[0].summary().expect("simulation outcome");
    assert_eq!(summary.policy, "dvfs-only");
    assert_eq!(summary.migration.migrations, 0);
}

#[test]
fn parallel_and_sequential_batches_are_byte_identical() {
    // A threshold × policy × package grid, kept short: 2 × 2 × 2 = 8 runs.
    let spec = ScenarioSpec::new("determinism")
        .with_schedule(0.5, 1.0)
        .with_sweep(
            SweepSpec::default()
                .with_packages([PackageKind::MobileEmbedded, PackageKind::HighPerformance])
                .with_policies(["thermal-balancing", "stop-and-go"])
                .with_thresholds([1.0, 3.0]),
        );
    let parallel = Runner::new().run_spec(&spec).expect("parallel batch runs");
    let sequential = Runner::sequential()
        .run_spec(&spec)
        .expect("sequential batch runs");
    assert_eq!(parallel.len(), 8);
    assert_eq!(parallel, sequential);
    assert_eq!(parallel.to_json(), sequential.to_json());
    assert_eq!(parallel.to_csv(), sequential.to_csv());
    // Reports come back in expansion order, not completion order.
    assert_eq!(
        parallel.reports[0].scenario,
        "determinism[mobile/thermal-balancing/t1]"
    );
    assert_eq!(
        parallel.reports[7].scenario,
        "determinism[hiperf/stop-and-go/t3]"
    );
}

#[test]
fn batch_reports_round_trip_through_json() {
    let spec = ScenarioSpec::new("report-serde")
        .with_package(PackageKind::HighPerformance)
        .with_policy("dvfs-only", 2.0)
        .with_schedule(0.5, 1.0);
    let batch = Runner::new().run_spec(&spec).expect("batch runs");
    let json = batch.to_json();
    let back: tbp_core::scenario::BatchReport =
        serde_json::from_str(&json).expect("batch JSON parses");
    assert_eq!(back, batch);
}
