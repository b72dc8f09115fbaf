//! `surrogate-flow`: exp-fig2 and exp-fig3-flow, the paper's Fig. 3
//! pipeline. Golden transient simulation and the boosted-tree fits of the
//! ML characterizer do most of the work.

use crate::json;
use crate::trace::Recorder;
use lori_cache::{Cache, CacheMode};
use lori_circuit::characterize::{characterize_library_par, she_as_delay_library, Corner};
use lori_circuit::flow::{run_she_flow_with_mode, SheFlowConfig, StaMode};
use lori_circuit::mlchar::{
    golden_instance_library, InstanceContext, MlCharConfig, MlCharacterizer,
};
use lori_circuit::netlist::processor_datapath;
use lori_circuit::she::SheModel;
use lori_circuit::spicelike::GoldenSimulator;
use lori_circuit::sta::{StaConfig, StaEngine};
use lori_circuit::tech::TechParams;
use lori_core::units::Celsius;
use lori_par::Parallelism;
use std::sync::Arc;

/// The seeded inputs of one pass.
pub struct Inputs {
    tech: TechParams,
    corner: Corner,
    fig2_netlist_seed: u64,
    fig3_netlist_seed: u64,
    mlchar: MlCharConfig,
    flow: SheFlowConfig,
    chip_temperature: Celsius,
}

pub fn setup(seed: u64) -> Inputs {
    let tech = TechParams::default();
    let mlchar = MlCharConfig {
        seed: seed.wrapping_add(MlCharConfig::default().seed),
        ..MlCharConfig::default()
    };
    Inputs {
        tech,
        corner: Corner::default(),
        fig2_netlist_seed: seed.wrapping_add(42),
        fig3_netlist_seed: seed.wrapping_add(7),
        chip_temperature: mlchar.chip_temperature,
        mlchar,
        flow: SheFlowConfig::default(),
    }
}

/// A simulator over a fresh in-memory golden cache: each step starts
/// cold, as each `exp-*` process does under the default `LORI_CACHE=mem`.
fn cold_simulator(tech: &TechParams) -> Result<GoldenSimulator, String> {
    GoldenSimulator::with_cache(tech.clone(), Arc::new(Cache::new(CacheMode::Mem)))
        .map_err(|e| e.to_string())
}

/// The exp-fig3-flow instance contexts.
fn contexts(instances: usize) -> Vec<InstanceContext> {
    (0..instances)
        .map(|i| InstanceContext {
            slew_ps: 10.0 + (i % 40) as f64 * 3.0,
            load_ff: 0.8 + (i % 17) as f64 * 0.7,
            delta_t_k: (i % 29) as f64,
            delta_vth_v: 0.005 + (i % 11) as f64 * 0.004,
        })
        .collect()
}

/// Runs the pass; returns `model_err`, the ML library's mean |rel err|
/// against golden.
pub fn run(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> f64 {
    rec.step("step.exp-fig2", |rec| fig2(rec, inp, par));
    rec.step("step.exp-fig3-flow", |rec| fig3(rec, inp, par))
        .unwrap_or(f64::NAN)
}

fn fig2(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<()> {
    let sim = rec.try_call("circuit.setup", || cold_simulator(&inp.tech))?;
    let lib = rec.try_call("circuit.characterize", || {
        characterize_library_par(&sim, &inp.corner, par)
    })?;
    let netlist = rec.try_call("circuit.netlist", || {
        processor_datapath(&lib, 16, inp.fig2_netlist_seed)
    })?;
    let report = rec.try_call("circuit.sta", || {
        let she_lib = she_as_delay_library(&lib, &SheModel::default())?;
        Ok::<_, lori_circuit::CircuitError>(
            StaEngine::new(&netlist, &she_lib, &StaConfig::default())?.into_report(),
        )
    })?;
    let she = &report.instance_delay_ps;
    rec.digest.all(she.iter().copied());
    rec.check(
        "fig2: one SHE value per instance",
        she.len() == netlist.instance_count(),
    );
    Some(())
}

fn fig3(rec: &mut Recorder, inp: &Inputs, par: Parallelism) -> Option<f64> {
    let sim = rec.try_call("circuit.setup", || cold_simulator(&inp.tech))?;
    let lib = rec.try_call("circuit.characterize", || {
        characterize_library_par(&sim, &inp.corner, par)
    })?;
    let netlist = rec.try_call("circuit.netlist", || {
        processor_datapath(&lib, 12, inp.fig3_netlist_seed)
    })?;
    let ml = rec.try_call("circuit.mlchar.train", || {
        MlCharacterizer::train_for_netlist_with(&sim, &lib, &netlist, &inp.mlchar, par)
    })?;
    rec.add("circuit.mlchar.models", ml.model_count() as f64);
    let ctx = contexts(netlist.instance_count());

    // Golden path, then ML path, timed from outside as exp-fig3-flow does.
    let t = std::time::Instant::now();
    let golden = rec.call("circuit.golden", || {
        golden_instance_library(&sim, &lib, &netlist, &ctx, inp.chip_temperature)
    });
    let golden_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let predicted = rec.try_call("circuit.mlchar.predict", || {
        ml.generate_instance_library(&netlist, &ctx)
    })?;
    let ml_s = t.elapsed().as_secs_f64();

    let (mut err, mut n) = (0.0, 0.0);
    for (g, p) in golden.iter().zip(&predicted) {
        if g.delay_ps.is_finite() && g.delay_ps > 0.0 {
            err += ((p.delay_ps - g.delay_ps) / g.delay_ps).abs();
            n += 1.0;
        }
    }
    rec.check(
        "fig3: golden and ML libraries cover every instance",
        golden.len() == netlist.instance_count() && predicted.len() == golden.len() && n > 0.0,
    );
    rec.check(
        "fig3: ML path is faster than the golden path",
        ml_s < golden_s,
    );
    rec.digest
        .all(golden.iter().flat_map(|t| [t.delay_ps, t.out_slew_ps]));
    rec.digest
        .all(predicted.iter().flat_map(|t| [t.delay_ps, t.out_slew_ps]));

    let flow = rec.try_call("circuit.she_flow", || {
        run_she_flow_with_mode(&sim, &lib, &netlist, &ml, &inp.flow, StaMode::Engine)
    })?;
    rec.check(
        "fig3: accurate guardband below worst-case corner",
        flow.pessimism_reduction() > 0.0,
    );
    let (names, values) = guardbands(&flow);
    for v in &values {
        rec.digest.all(v.iter().copied());
    }
    let fields = names.iter().zip(&values).map(|(name, v)| {
        let value = match v.as_slice() {
            [x] => json::num(*x),
            xs => json::arr(xs.iter().copied()),
        };
        (*name, value)
    });
    rec.export("exp-fig3-flow.guardbands.json", json::obj(fields));
    let model_err = err / n;
    rec.digest.f64(model_err);
    Some(model_err)
}

/// The `exp-fig3-flow.guardbands.json` fields, in file order.
pub fn guardbands(flow: &lori_circuit::flow::SheFlowReport) -> ([&'static str; 8], [Vec<f64>; 8]) {
    (
        [
            "nominal_max_arrival_ps",
            "accurate_max_arrival_ps",
            "worst_case_max_arrival_ps",
            "accurate_margin_ps",
            "worst_case_margin_ps",
            "pessimism_reduction",
            "instance_she_k",
            "instance_delta_vth_v",
        ],
        [
            vec![flow.nominal.max_arrival_ps],
            vec![flow.accurate.max_arrival_ps],
            vec![flow.worst_case.max_arrival_ps],
            vec![flow.accurate_guardband().margin_ps()],
            vec![flow.worst_case_guardband().margin_ps()],
            vec![flow.pessimism_reduction()],
            flow.instance_she_k.clone(),
            flow.instance_delta_vth_v.clone(),
        ],
    )
}
