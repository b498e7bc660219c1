type t = { base : int; per_hop : int; jitter : int }

let default = { base = 20; per_hop = 10; jitter = 0 }

let no_jitter ~base ~per_hop = { base; per_hop; jitter = 0 }

let delay t rng ~hops =
  if hops < 0 then invalid_arg "Latency.delay: negative hop count";
  let d = t.base + (t.per_hop * hops) in
  if t.jitter <= 0 then d else d + Recflow_sim.Rng.int rng (t.jitter + 1)
