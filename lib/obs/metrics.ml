type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;  (* bucket i counts values with 2^i <= v < 2^(i+1); bucket 0 also holds v <= 1 *)
}

let hist_create () =
  { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int; buckets = Array.make 31 0 }

let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 1 do
      incr b;
      x := !x lsr 1
    done;
    min !b 30
  end

let hist_observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

(* [n] observations of the same value [v] *)
let hist_observe_n h v n =
  if n > 0 then begin
    h.h_count <- h.h_count + n;
    h.h_sum <- h.h_sum + (n * v);
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + n
  end

let hist_mean h = if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

let hist_reset h =
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_min <- max_int;
  h.h_max <- min_int;
  Array.fill h.buckets 0 (Array.length h.buckets) 0

let hist_to_json h =
  let nonzero = ref [] in
  Array.iteri (fun i c -> if c > 0 then nonzero := (string_of_int i, Json.Int c) :: !nonzero) h.buckets;
  Json.Obj
    [ ("count", Json.Int h.h_count); ("sum", Json.Int h.h_sum);
      ("min", Json.Int (if h.h_count = 0 then 0 else h.h_min));
      ("max", Json.Int (if h.h_count = 0 then 0 else h.h_max));
      ("mean", Json.Float (hist_mean h)); ("log2_buckets", Json.Obj (List.rev !nonzero)) ]

type t = {
  mutable block_fetches : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable words_decrypted : int;
  mutable mac_verifies : int;
  mutable mac_failures : int;
  mutable mux_path1 : int;
  mutable mux_path2 : int;
  mutable blocks_entered : int;
  mutable retires : int;
  mutable violations : int;
  mutable resets : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable ks_cache_hits : int;
  mutable ks_cache_misses : int;
  mutable ks_cache_evictions : int;
  mutable engine_hits : int;
  mutable engine_misses : int;
  mutable engine_invalidations : int;
  mutable engine_traces : int;
  mutable verify_checks : int;
  mutable verify_issues : int;
  block_cycles : histogram;
}

let create () =
  {
    block_fetches = 0;
    memo_hits = 0;
    memo_misses = 0;
    words_decrypted = 0;
    mac_verifies = 0;
    mac_failures = 0;
    mux_path1 = 0;
    mux_path2 = 0;
    blocks_entered = 0;
    retires = 0;
    violations = 0;
    resets = 0;
    icache_hits = 0;
    icache_misses = 0;
    ks_cache_hits = 0;
    ks_cache_misses = 0;
    ks_cache_evictions = 0;
    engine_hits = 0;
    engine_misses = 0;
    engine_invalidations = 0;
    engine_traces = 0;
    verify_checks = 0;
    verify_issues = 0;
    block_cycles = hist_create ();
  }

let reset t =
  t.block_fetches <- 0;
  t.memo_hits <- 0;
  t.memo_misses <- 0;
  t.words_decrypted <- 0;
  t.mac_verifies <- 0;
  t.mac_failures <- 0;
  t.mux_path1 <- 0;
  t.mux_path2 <- 0;
  t.blocks_entered <- 0;
  t.retires <- 0;
  t.violations <- 0;
  t.resets <- 0;
  t.icache_hits <- 0;
  t.icache_misses <- 0;
  t.ks_cache_hits <- 0;
  t.ks_cache_misses <- 0;
  t.ks_cache_evictions <- 0;
  t.engine_hits <- 0;
  t.engine_misses <- 0;
  t.engine_invalidations <- 0;
  t.engine_traces <- 0;
  t.verify_checks <- 0;
  t.verify_issues <- 0;
  hist_reset t.block_cycles

let counters t =
  [
    ("block_fetches", t.block_fetches);
    ("memo_hits", t.memo_hits);
    ("memo_misses", t.memo_misses);
    ("words_decrypted", t.words_decrypted);
    ("mac_verifies", t.mac_verifies);
    ("mac_failures", t.mac_failures);
    ("mux_path1", t.mux_path1);
    ("mux_path2", t.mux_path2);
    ("blocks_entered", t.blocks_entered);
    ("retires", t.retires);
    ("violations", t.violations);
    ("resets", t.resets);
    ("icache_hits", t.icache_hits);
    ("icache_misses", t.icache_misses);
    ("ks_cache_hits", t.ks_cache_hits);
    ("ks_cache_misses", t.ks_cache_misses);
    ("ks_cache_evictions", t.ks_cache_evictions);
    ("engine_hits", t.engine_hits);
    ("engine_misses", t.engine_misses);
    ("engine_invalidations", t.engine_invalidations);
    ("engine_traces", t.engine_traces);
    ("verify_checks", t.verify_checks);
    ("verify_issues", t.verify_issues);
  ]

let to_json t =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)
    @ [ ("block_cycles", hist_to_json t.block_cycles) ])

let pp fmt t =
  List.iter (fun (k, v) -> if v <> 0 then Format.fprintf fmt "%-18s %12d@." k v) (counters t);
  if t.block_cycles.h_count > 0 then
    Format.fprintf fmt "%-18s count %d mean %.1f min %d max %d@." "block_cycles"
      t.block_cycles.h_count (hist_mean t.block_cycles) t.block_cycles.h_min t.block_cycles.h_max
