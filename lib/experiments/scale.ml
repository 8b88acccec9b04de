type t = {
  label : string;
  table1_hosts : int;
  table1_services : int list;
  table1_covs : float list;
  table1_slacks : float list;
  table1_reps : int;
  fig_cov_hosts : int;
  fig_cov_services : int;
  fig_cov_slack : float;
  fig_cov_covs : float list;
  fig_cov_reps : int;
  fig_cov_include_rrnz : bool;
  error_hosts : int;
  error_services : int list;
  error_slack : float;
  error_cov : float;
  error_max_errors : float list;
  error_thresholds : float list;
  error_reps : int;
  light_hosts : int;
  light_services : int;
  light_reps : int;
}

let range lo hi step =
  let rec loop x acc =
    if x > hi +. 1e-9 then List.rev acc else loop (x +. step) (x :: acc)
  in
  loop lo []

let small =
  {
    label = "small";
    table1_hosts = 10;
    table1_services = [ 15; 40; 80 ];
    table1_covs = [ 0.0; 0.5; 1.0 ];
    table1_slacks = [ 0.3; 0.6 ];
    table1_reps = 2;
    fig_cov_hosts = 12;
    fig_cov_services = 60;
    fig_cov_slack = 0.3;
    fig_cov_covs = range 0.0 1.0 0.125;
    fig_cov_reps = 3;
    fig_cov_include_rrnz = true;
    error_hosts = 12;
    error_services = [ 18; 45; 90 ];
    error_slack = 0.4;
    error_cov = 0.5;
    error_max_errors = range 0.0 0.4 0.05;
    error_thresholds = [ 0.0; 0.1; 0.3 ];
    error_reps = 3;
    light_hosts = 24;
    light_services = 180;
    light_reps = 3;
  }

let medium =
  {
    label = "medium";
    table1_hosts = 16;
    table1_services = [ 24; 64; 128 ];
    table1_covs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
    table1_slacks = [ 0.2; 0.4; 0.6; 0.8 ];
    table1_reps = 3;
    fig_cov_hosts = 16;
    fig_cov_services = 128;
    fig_cov_slack = 0.3;
    fig_cov_covs = range 0.0 1.0 0.1;
    fig_cov_reps = 5;
    fig_cov_include_rrnz = false;
    error_hosts = 16;
    error_services = [ 24; 64; 128 ];
    error_slack = 0.4;
    error_cov = 0.5;
    error_max_errors = range 0.0 0.4 0.04;
    error_thresholds = [ 0.0; 0.1; 0.3 ];
    error_reps = 5;
    light_hosts = 48;
    light_services = 384;
    light_reps = 3;
  }

let paper =
  {
    label = "paper";
    table1_hosts = 64;
    table1_services = [ 100; 250; 500 ];
    table1_covs = range 0.0 1.0 0.1;
    table1_slacks = range 0.1 0.9 0.1;
    table1_reps = 5;
    fig_cov_hosts = 64;
    fig_cov_services = 500;
    fig_cov_slack = 0.3;
    fig_cov_covs = range 0.0 1.0 0.05;
    fig_cov_reps = 10;
    fig_cov_include_rrnz = false;
    error_hosts = 64;
    error_services = [ 100; 250; 500 ];
    error_slack = 0.4;
    error_cov = 0.5;
    error_max_errors = range 0.0 0.4 0.02;
    error_thresholds = [ 0.0; 0.1; 0.3 ];
    error_reps = 10;
    light_hosts = 128;
    light_services = 1000;
    light_reps = 2;
  }

let from_env () =
  match Sys.getenv_opt "VMALLOC_SCALE" with
  | Some "medium" -> medium
  | Some "paper" -> paper
  | Some "small" | None -> (
      match Sys.getenv_opt "FULL" with
      | Some ("1" | "true" | "yes") -> medium
      | _ -> small)
  | Some other ->
      Printf.eprintf "warning: unknown VMALLOC_SCALE %S, using small\n%!"
        other;
      small
