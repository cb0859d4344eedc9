type engine = Fast | Ref

type t = {
  timing : Timing.t;
  icache : Icache.config;
  mem_size : int;
  fuel : int;
  ks_cache_slots : int option;
  engine : engine;
  edge_memo : bool;
  backend : Sofia_transform.Backend_id.t;
}

let default =
  {
    timing = Timing.leon3_default;
    icache = Icache.default;
    mem_size = 1 lsl 20;
    fuel = 400_000_000;
    ks_cache_slots = None;
    engine = Fast;
    edge_memo = true;
    backend = Sofia_transform.Backend_id.Sofia;
  }

let initial_sp t = (t.mem_size - 16) land lnot 15

let engine_name = function Fast -> "fast" | Ref -> "ref"
