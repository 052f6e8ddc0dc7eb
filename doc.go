// Package wfserverless is a from-scratch Go reproduction of "Enabling
// HPC Scientific Workflows for Serverless" (Da Silva et al., SC 2024).
//
// The module implements the paper's full framework and every substrate
// its evaluation depends on:
//
//   - internal/recipes, internal/wfgen: the WfCommons-equivalent
//     generator pipeline (WfChef-style recipes -> WfGen) for the seven
//     applications of the paper (Blast, BWA, Cycles, Epigenomics,
//     Genomes, Seismology, Srasearch);
//   - internal/translator: the paper's Knative translator plus
//     LocalContainer, Pegasus, Nextflow, and CNCF Serverless Workflow
//     DSL outputs;
//   - internal/wfbench: WfBench as a Service (CPU duty-cycle stress,
//     memory ballast with --vm-keep semantics, sized file I/O) behind
//     HTTP;
//   - internal/serverless, internal/container: the Knative-equivalent
//     platform (ingress, pods, KPA-style autoscaler, cold starts,
//     scale-to-zero) and the bare-metal local-container baseline;
//   - internal/wfm: the serverless workflow manager — the paper's core
//     contribution — executing DAGs over HTTP either phase by phase
//     (the paper's barrier design) or dependency-driven via an
//     incremental ready-set scheduler (dag.Scheduler) that eliminates
//     phase barriers, inter-phase delays, and shared-drive polling;
//   - internal/cluster, internal/metrics, internal/sharedfs: the
//     two-node testbed model with RAPL-style power, PCP-style sampling,
//     and the shared drive;
//   - internal/experiments, internal/analysis, internal/model: the
//     140-experiment evaluation harness behind Tables I-II and Figures
//     3-7, the notebook-equivalent analysis, and a closed-form
//     performance model.
//
// This file's package exists to host the top-level benchmark harness
// (bench_test.go), which regenerates every table and figure of the
// paper's evaluation; see README.md for the tour and EXPERIMENTS.md for
// paper-vs-measured results.
package wfserverless
