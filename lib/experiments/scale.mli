(** Experiment scale presets.

    The paper's sweeps (64–512 hosts, 100–2000 services, 36,900 instances
    per service count, GLPK as LP back-end) do not fit a laptop-scale bench
    with a from-scratch dense simplex, so every driver is parameterized by a
    scale. The default [small] preset keeps services-per-node ratios
    comparable to the paper's (1.5–8 services per node) while shrinking
    absolute sizes; [medium] widens the sweeps; [paper] uses the paper's
    axes (64 hosts, 100/250/500 services) and is only intended for long
    unattended runs — LP-based algorithms are still confined to the reduced
    sizes for tractability (DESIGN.md §3).

    Select with the [VMALLOC_SCALE] environment variable
    ([small]/[medium]/[paper]). *)

type t = {
  label : string;
  (* Table 1 & 2 *)
  table1_hosts : int;
  table1_services : int list;  (** three scenario sizes *)
  table1_covs : float list;
  table1_slacks : float list;
  table1_reps : int;
  (* Fig. 2–4 family *)
  fig_cov_hosts : int;
  fig_cov_services : int;
  fig_cov_slack : float;
  fig_cov_covs : float list;
  fig_cov_reps : int;
  fig_cov_include_rrnz : bool;
      (** RRNZ solves an LP per instance; off for larger scales *)
  (* Fig. 5–7 family *)
  error_hosts : int;
  error_services : int list;  (** three scenario sizes *)
  error_slack : float;
  error_cov : float;
  error_max_errors : float list;
  error_thresholds : float list;  (** minimum-threshold mitigation levels *)
  error_reps : int;
  (* §5.1 METAHVPLIGHT comparison *)
  light_hosts : int;
  light_services : int;
  light_reps : int;
}

val small : t
val medium : t
val paper : t

val from_env : unit -> t
(** Reads [VMALLOC_SCALE]; defaults to {!small}. *)
