type task = { cores : int; memory_fraction : float }

(* Shape approximating the public 2010 Google cluster trace: most tasks
   request one core, a visible minority two, and a thin tail up to four
   (the paper's reference machines are quad-core, so four is the natural
   cap). *)
let core_distribution =
  [| (1, 0.76); (2, 0.14); (3, 0.06); (4, 0.04) |]

let max_cores = 4

let weights = Array.map snd core_distribution

let sample_cores rng =
  let i = Prng.Rng.choose_weighted rng weights in
  fst core_distribution.(i)

(* Lognormal(mu = -3.2, sigma = 1.1) has median exp(-3.2) ~ 4% of a machine
   and a heavy right tail; truncation to (0.001, 0.5] keeps the occasional
   memory hog without producing unplaceable monsters in the raw draw. *)
let sample_memory_fraction rng =
  let rec draw attempts =
    if attempts > 10_000 then 0.04
    else
      let x = Prng.Rng.lognormal rng ~mu:(-3.2) ~sigma:1.1 in
      if x >= 0.001 && x <= 0.5 then x else draw (attempts + 1)
  in
  draw 0

let sample rng =
  let cores = sample_cores rng in
  let memory_fraction = sample_memory_fraction rng in
  { cores; memory_fraction }
