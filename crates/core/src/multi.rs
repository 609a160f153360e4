//! Coarse-grain pipelining onto multiple FPGAs.
//!
//! The paper's infrastructure "largely supports the direct mapping of
//! computations to multiple FPGAs" (§1, citing Ziegler et al., FCCM'02);
//! the PLDI paper itself evaluates a single FPGA. This module provides
//! that multi-FPGA layer: a sequence of kernels (pipeline *stages*, each
//! consuming its predecessor's output array) is mapped onto a board with
//! several FPGAs, each stage explored with the single-FPGA algorithm
//! under its FPGA's remaining capacity.
//!
//! The macro-pipeline's **throughput** is set by the slowest stage (one
//! image/frame leaves the pipeline every `max(stage cycles)`), its
//! **latency** by the sum of stage times plus inter-FPGA channel
//! transfers. After the initial mapping, an optional rebalancing step
//! climbs the slowest stage's design toward pure speed — spending its
//! FPGA's slack area to lift whole-pipeline throughput.

use crate::engine::EvalEngine;
use crate::error::{DseError, Result};
use crate::explorer::{EvaluatedDesign, Explorer};
use crate::search::SearchResult;
use crate::strategies::hill_climb;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use defacto_ir::{ArrayKind, Kernel};
use defacto_synth::{FpgaDevice, MemoryModel};
use defacto_xform::TransformOptions;
use std::sync::Arc;

/// One stage of a coarse-grain pipeline.
#[derive(Debug, Clone)]
pub struct PipelineStage {
    /// Stage name, for reports.
    pub name: String,
    /// The stage's kernel.
    pub kernel: Kernel,
}

impl PipelineStage {
    /// Construct a named stage.
    pub fn new(name: impl Into<String>, kernel: Kernel) -> Self {
        PipelineStage {
            name: name.into(),
            kernel,
        }
    }
}

/// Where one stage landed.
#[derive(Debug, Clone)]
pub struct StagePlacement {
    /// The stage's name.
    pub stage: String,
    /// Index of the FPGA hosting it.
    pub fpga: usize,
    /// The design the single-FPGA search selected for it.
    pub design: EvaluatedDesign,
    /// Words streamed to the next stage (0 for the last stage).
    pub channel_words: u64,
}

/// The result of mapping a pipeline onto multiple FPGAs.
#[derive(Debug, Clone)]
pub struct PipelineMapping {
    /// Per-stage placements, in pipeline order.
    pub placements: Vec<StagePlacement>,
    /// Initiation interval of the macro pipeline: the slowest stage's
    /// cycles (inter-FPGA transfers overlap with compute via
    /// double-buffered channels).
    pub throughput_cycles: u64,
    /// End-to-end latency of one input through all stages, including
    /// channel transfers.
    pub latency_cycles: u64,
    /// Slices used per FPGA.
    pub slices_per_fpga: Vec<u32>,
}

impl PipelineMapping {
    /// The bottleneck stage's name.
    pub fn bottleneck(&self) -> &str {
        self.placements
            .iter()
            .max_by_key(|p| p.design.estimate.cycles)
            .map(|p| p.stage.as_str())
            .unwrap_or("")
    }

    /// Throughput in outputs per second at the given clock.
    pub fn throughput_per_second(&self, clock_ns: u32) -> f64 {
        if self.throughput_cycles == 0 {
            return 0.0;
        }
        1e9 / (self.throughput_cycles as f64 * clock_ns as f64)
    }
}

/// Options for [`map_pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Memory model of each FPGA's external memories.
    pub memory: MemoryModel,
    /// The device each FPGA position holds.
    pub device: FpgaDevice,
    /// Transformation options for every stage.
    pub transform: TransformOptions,
    /// Cycles to stream one word across an inter-FPGA channel.
    pub channel_cycles_per_word: u64,
    /// After placement, hill-climb the slowest stage toward raw speed
    /// within its FPGA's slack.
    pub rebalance: bool,
    /// Worker threads for exploring independent stages concurrently.
    /// `None` defers to `DEFACTO_THREADS` / available parallelism.
    pub threads: Option<usize>,
    /// Sink for mapping events ([`TraceEvent::StagePlaced`],
    /// [`TraceEvent::StageRebalanced`]), emitted by the deterministic
    /// serial placement and rebalance loops.
    pub trace: Arc<dyn TraceSink>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            memory: MemoryModel::wildstar_pipelined(),
            device: FpgaDevice::virtex1000(),
            transform: TransformOptions::default(),
            channel_cycles_per_word: 1,
            rebalance: true,
            threads: None,
            trace: Arc::new(NullSink),
        }
    }
}

/// Check that consecutive stages compose: every stage after the first
/// must have an input array matching (name, dims, type) an output array
/// of its predecessor.
///
/// # Errors
///
/// Returns [`DseError::OutsideSpace`]-style invalid input errors when the
/// chain is broken.
pub fn validate_chain(stages: &[PipelineStage]) -> Result<()> {
    for w in stages.windows(2) {
        let producer = &w[0];
        let consumer = &w[1];
        let produced: Vec<_> = producer
            .kernel
            .arrays()
            .iter()
            .filter(|a| a.kind != ArrayKind::In)
            .collect();
        let ok = consumer
            .kernel
            .arrays()
            .iter()
            .filter(|a| a.kind != ArrayKind::Out)
            .any(|input| {
                produced.iter().any(|out| {
                    out.name == input.name && out.dims == input.dims && out.ty == input.ty
                })
            });
        if !ok {
            return Err(DseError::OutsideSpace(format!(
                "stage `{}` consumes no array produced by stage `{}`",
                consumer.name, producer.name
            )));
        }
    }
    Ok(())
}

/// Map `stages` onto `num_fpgas` FPGAs.
///
/// Stages are assigned round-robin when they fit one per FPGA; with more
/// stages than FPGAs, stages pack greedily onto the FPGA with the most
/// remaining slices, and each stage's search runs against the remaining
/// capacity of its host (so co-located stages share the device honestly).
///
/// # Errors
///
/// Fails when the chain does not compose, `num_fpgas == 0`, or a stage's
/// exploration fails.
pub fn map_pipeline(
    stages: &[PipelineStage],
    num_fpgas: usize,
    opts: &PipelineOptions,
) -> Result<PipelineMapping> {
    if num_fpgas == 0 || stages.is_empty() {
        return Err(DseError::OutsideSpace(
            "pipeline needs at least one stage and one FPGA".into(),
        ));
    }
    validate_chain(stages)?;

    let mut remaining: Vec<u32> = vec![opts.device.capacity_slices; num_fpgas];
    let mut placements: Vec<StagePlacement> = Vec::new();

    // Stages are independent searches, so explore them all concurrently
    // at *full* device capacity before placing anything. The serial
    // placement loop below reuses a speculative result only when the
    // stage really is granted a pristine FPGA (its assigned capacity
    // equals the full device) — co-located stages see reduced capacity
    // and re-explore serially, so packed placements are bit-identical to
    // the all-serial mapping. Speculative failures are discarded: the
    // serial path re-runs the stage and surfaces the real error.
    let engine = EvalEngine::with_threads(opts.threads);
    let mut speculative: Vec<Option<SearchResult>> = if engine.threads() > 1 && stages.len() > 1 {
        engine
            .parallel_map(stages, |stage| {
                Explorer::new(&stage.kernel)
                    .memory(opts.memory.clone())
                    .device(opts.device.clone())
                    .options(opts.transform.clone())
                    .threads(1)
                    .explore()
            })
            .into_iter()
            .map(|r| r.ok())
            .collect()
    } else {
        (0..stages.len()).map(|_| None).collect()
    };

    for (idx, stage) in stages.iter().enumerate() {
        // Host: FPGA with the most remaining slices (round-robin when
        // stages ≤ FPGAs, since all start equal and ties break low).
        let fpga = (0..num_fpgas)
            .max_by_key(|&f| (remaining[f], std::cmp::Reverse(f)))
            .expect("at least one fpga");
        let capacity = remaining[fpga];
        let result = match speculative[idx].take() {
            Some(r) if capacity == opts.device.capacity_slices => r,
            _ => {
                let device = FpgaDevice {
                    name: format!("{}#{fpga}", opts.device.name),
                    capacity_slices: capacity,
                    clock_ns: opts.device.clock_ns,
                };
                Explorer::new(&stage.kernel)
                    .memory(opts.memory.clone())
                    .device(device)
                    .options(opts.transform.clone())
                    .explore()?
            }
        };
        let design = result.selected;

        // Channel volume: words produced for the next stage.
        let channel_words = if idx + 1 < stages.len() {
            stage
                .kernel
                .arrays()
                .iter()
                .filter(|a| a.kind != ArrayKind::In)
                .map(|a| a.len() as u64)
                .sum()
        } else {
            0
        };

        // Rebalancing happens after all stages are placed; remember the
        // placement now.
        remaining[fpga] = remaining[fpga].saturating_sub(design.estimate.slices);
        if opts.trace.enabled() {
            opts.trace.record(&TraceEvent::StagePlaced {
                stage: stage.name.clone(),
                fpga,
                unroll: design.unroll.clone(),
                cycles: design.estimate.cycles,
                slices: design.estimate.slices,
            });
        }
        placements.push(StagePlacement {
            stage: stage.name.clone(),
            fpga,
            design,
            channel_words,
        });
    }

    // Rebalance: repeatedly climb the current bottleneck stage toward
    // raw speed within its FPGA's slack, until no bottleneck improves.
    if opts.rebalance {
        for _ in 0..placements.len().max(1) * 2 {
            let Some(slowest) = placements
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.design.estimate.cycles)
                .map(|(i, _)| i)
            else {
                break;
            };
            let p = &placements[slowest];
            let slack = remaining[p.fpga] + p.design.estimate.slices;
            let device = FpgaDevice {
                name: format!("{}#{}", opts.device.name, p.fpga),
                capacity_slices: slack,
                clock_ns: opts.device.clock_ns,
            };
            let stage = &stages[slowest];
            let ex = Explorer::new(&stage.kernel)
                .memory(opts.memory.clone())
                .device(device)
                .options(opts.transform.clone());
            let (_, space) = ex.analyze()?;
            let start = p.design.unroll.clone();
            let climbed = hill_climb(&space, &start, 16, |u| Ok(ex.evaluate(u)?.estimate))?;
            let improved = climbed.selected.estimate.cycles < p.design.estimate.cycles
                && climbed.selected.estimate.fits;
            if !improved {
                break;
            }
            let fpga = p.fpga;
            if opts.trace.enabled() {
                opts.trace.record(&TraceEvent::StageRebalanced {
                    stage: p.stage.clone(),
                    fpga,
                    unroll: climbed.selected.unroll.clone(),
                    from_cycles: p.design.estimate.cycles,
                    to_cycles: climbed.selected.estimate.cycles,
                });
            }
            remaining[fpga] += p.design.estimate.slices;
            remaining[fpga] = remaining[fpga].saturating_sub(climbed.selected.estimate.slices);
            placements[slowest].design = climbed.selected;
        }
    }

    let throughput_cycles = placements
        .iter()
        .map(|p| p.design.estimate.cycles)
        .max()
        .unwrap_or(0);
    let latency_cycles = placements
        .iter()
        .map(|p| p.design.estimate.cycles + p.channel_words * opts.channel_cycles_per_word)
        .sum();
    let slices_per_fpga = (0..num_fpgas)
        .map(|f| opts.device.capacity_slices - remaining[f])
        .collect();

    Ok(PipelineMapping {
        placements,
        throughput_cycles,
        latency_cycles,
        slices_per_fpga,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;

    /// JAC smoothing into SOBEL edge detection: the classic two-stage
    /// image pipeline, with JAC's output renamed to SOBEL's input.
    fn image_pipeline() -> Vec<PipelineStage> {
        let jac = parse_kernel(
            "kernel smooth { in A: i16[34][34]; out Img: i16[34][34];
               for i in 1..33 { for j in 1..33 {
                 Img[i][j] = (A[i - 1][j] + A[i + 1][j] + A[i][j - 1] + A[i][j + 1]) / 4;
               } } }",
        )
        .unwrap();
        let sobel = parse_kernel(
            "kernel edges { in Img: i16[34][34]; out E: i16[34][34];
               var gx: i16; var gy: i16; var mag: i16;
               for i in 1..33 { for j in 1..33 {
                 gx = (Img[i - 1][j + 1] + 2 * Img[i][j + 1] + Img[i + 1][j + 1])
                    - (Img[i - 1][j - 1] + 2 * Img[i][j - 1] + Img[i + 1][j - 1]);
                 gy = (Img[i + 1][j - 1] + 2 * Img[i + 1][j] + Img[i + 1][j + 1])
                    - (Img[i - 1][j - 1] + 2 * Img[i - 1][j] + Img[i - 1][j + 1]);
                 mag = abs(gx) + abs(gy);
                 E[i][j] = mag > 255 ? 255 : mag;
               } } }",
        )
        .unwrap();
        vec![
            PipelineStage::new("smooth", jac),
            PipelineStage::new("edges", sobel),
        ]
    }

    #[test]
    fn two_stage_pipeline_on_two_fpgas() {
        let stages = image_pipeline();
        let m = map_pipeline(&stages, 2, &PipelineOptions::default()).unwrap();
        assert_eq!(m.placements.len(), 2);
        // One stage per FPGA.
        assert_ne!(m.placements[0].fpga, m.placements[1].fpga);
        // Throughput is the slower stage.
        let cycles: Vec<u64> = m
            .placements
            .iter()
            .map(|p| p.design.estimate.cycles)
            .collect();
        assert_eq!(m.throughput_cycles, *cycles.iter().max().unwrap());
        // Latency includes channel transfer of the 34×34 frame.
        assert!(m.latency_cycles >= cycles.iter().sum::<u64>() + 34 * 34);
        assert!(m.throughput_per_second(40) > 0.0);
    }

    #[test]
    fn packing_two_stages_on_one_fpga_shares_capacity() {
        let stages = image_pipeline();
        let one = map_pipeline(&stages, 1, &PipelineOptions::default()).unwrap();
        assert_eq!(one.placements[0].fpga, 0);
        assert_eq!(one.placements[1].fpga, 0);
        // Combined designs fit the single device.
        assert!(one.slices_per_fpga[0] <= FpgaDevice::virtex1000().capacity_slices);
        // Two FPGAs give at least as good a throughput.
        let two = map_pipeline(&stages, 2, &PipelineOptions::default()).unwrap();
        assert!(two.throughput_cycles <= one.throughput_cycles);
    }

    #[test]
    fn broken_chain_rejected() {
        let a = parse_kernel(
            "kernel a { in X: i32[8]; out Y: i32[8];
               for i in 0..8 { Y[i] = X[i]; } }",
        )
        .unwrap();
        let b = parse_kernel(
            "kernel b { in Z: i32[8]; out W: i32[8];
               for i in 0..8 { W[i] = Z[i]; } }",
        )
        .unwrap();
        let err = map_pipeline(
            &[PipelineStage::new("a", a), PipelineStage::new("b", b)],
            2,
            &PipelineOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DseError::OutsideSpace(_)));
    }

    #[test]
    fn rebalance_never_hurts_throughput() {
        let stages = image_pipeline();
        let with = map_pipeline(&stages, 2, &PipelineOptions::default()).unwrap();
        let without = map_pipeline(
            &stages,
            2,
            &PipelineOptions {
                rebalance: false,
                ..PipelineOptions::default()
            },
        )
        .unwrap();
        assert!(with.throughput_cycles <= without.throughput_cycles);
    }

    #[test]
    fn zero_fpgas_rejected() {
        let err = map_pipeline(&image_pipeline(), 0, &PipelineOptions::default()).unwrap_err();
        assert!(matches!(err, DseError::OutsideSpace(_)));
    }

    #[test]
    fn bottleneck_is_reported() {
        let stages = image_pipeline();
        let m = map_pipeline(&stages, 2, &PipelineOptions::default()).unwrap();
        assert!(["smooth", "edges"].contains(&m.bottleneck()));
    }

    #[test]
    fn multi_fidelity_mapping_matches_full() {
        // Speculative parallel stage searches never change the mapping.
        let stages = image_pipeline();
        let at = |threads| {
            let opts = PipelineOptions {
                threads: Some(threads),
                ..PipelineOptions::default()
            };
            map_pipeline(&stages, 2, &opts).unwrap()
        };
        let (serial, parallel) = (at(1), at(4));
        assert_eq!(serial.throughput_cycles, parallel.throughput_cycles);
        assert_eq!(serial.placements.len(), parallel.placements.len());
        for (f, m) in serial.placements.iter().zip(&parallel.placements) {
            assert_eq!(f.fpga, m.fpga);
            assert_eq!(f.design.unroll, m.design.unroll);
            assert_eq!(f.design.estimate, m.design.estimate);
        }
    }

    #[test]
    fn mapping_emits_stage_events() {
        let stages = image_pipeline();
        let sink = Arc::new(crate::trace::MemorySink::new());
        let opts = PipelineOptions {
            trace: sink.clone(),
            ..PipelineOptions::default()
        };
        let m = map_pipeline(&stages, 2, &opts).unwrap();
        let events = sink.events();
        let placed: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StagePlaced { stage, .. } => Some(stage.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(placed, vec!["smooth", "edges"]);
        // Every placed event matches the final placement's FPGA.
        for e in &events {
            if let TraceEvent::StagePlaced { stage, fpga, .. } = e {
                let p = m.placements.iter().find(|p| &p.stage == stage).unwrap();
                assert_eq!(p.fpga, *fpga);
            }
        }
    }
}
