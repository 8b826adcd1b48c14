//! Experiment harness regenerating every table and figure of the paper.
//!
//! The binaries under `src/bin/` each rebuild one artefact of §VI:
//!
//! | Binary     | Artefact |
//! |------------|----------|
//! | `table3`   | Table III — F1_PA / F1_DPA on PSM, SWaT, IS-1, IS-2 + ranks |
//! | `table4`   | Table IV — SMD subsets: F1 mean±std, OP counts, F1_sensor |
//! | `table5`   | Table V — Ahead / Miss, CAD vs each baseline |
//! | `fig4`     | Fig. 4 — #SMD subsets CAD outperforms vs Ahead/Miss ratio |
//! | `fig5`     | Fig. 5 — VUS-ROC / VUS-PR after PA and DPA |
//! | `table6_7` | Tables VI & VII — training/testing time + CAD TPR |
//! | `table8`   | Table VIII — minimum F1 over repeats (robustness) |
//! | `fig6`     | Fig. 6 — scalability on IS-1…IS-5 (F1 + TPR) |
//! | `fig7`     | Fig. 7 — case study: per-method detection delay |
//! | `fig8`     | Fig. 8 — parameter study (w/|T|, s/w, τ, θ, k) |
//!
//! Two environment knobs trade fidelity for wall-clock:
//! `CAD_SCALE` (default 0.5) multiplies dataset lengths, and
//! `CAD_REPEATS` (default 3) sets the repeat count for randomised methods
//! (the paper uses 10).

pub mod cad_method;
pub mod holes;
pub mod registry;
pub mod report;
pub mod runner;

pub use cad_method::CadMethod;
pub use registry::{build_method, method_names, MethodId};
pub use report::{fmt_cell, fmt_mean_std, Table};
pub use runner::{
    env_repeats, env_scale, evaluate_scores, predictions_at, run_cad_grid, run_method_matrix,
    run_on_dataset, vus_pair, EvalSummary, MatrixCell, MethodRun,
};
