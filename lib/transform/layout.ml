module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
module Program = Sofia_asm.Program
module Cfg = Sofia_cfg.Cfg

type role = Primary | Bridge | Shim | Trampoline | Funnel

type block = {
  base : int;
  kind : Block.kind;
  role : role;
  insns : Insn.t array;
  entry_prev_pcs : int list;
  orig_indices : int option array;
}

type stats = {
  original_insns : int;
  original_text_bytes : int;
  transformed_text_bytes : int;
  exec_blocks : int;
  mux_blocks : int;
  bridge_blocks : int;
  shim_blocks : int;
  trampoline_blocks : int;
  funnel_blocks : int;
  pad_slots : int;
  unreachable_dropped : int;
}

type t = {
  blocks : block array;
  entry : int;
  text_base : int;
  data : Bytes.t;
  data_base : int;
  addr_of_orig : int array;
  stats : stats;
}

type error =
  | Cfg_errors of Cfg.error list
  | Branch_out_of_range of { from_addr : int; to_addr : int }
  | Code_pointer_unresolved of string
  | Code_pointer_ambiguous of string
  | Indirect_fanin_unsupported of { sites : int }
  | Empty_program

let pp_error fmt = function
  | Cfg_errors es ->
    Format.fprintf fmt "CFG construction failed:";
    List.iter (fun e -> Format.fprintf fmt "@ %a" Cfg.pp_error e) es
  | Branch_out_of_range { from_addr; to_addr } ->
    Format.fprintf fmt "branch at 0x%08x cannot reach 0x%08x (offset field too small)" from_addr
      to_addr
  | Code_pointer_unresolved s ->
    Format.fprintf fmt
      "code pointer to %S: symbol is not the target of any declared indirect jump" s
  | Code_pointer_ambiguous s ->
    Format.fprintf fmt
      "code pointer to %S: several indirect sites target it, so one pointer value cannot name a \
       unique entry port" s
  | Indirect_fanin_unsupported { sites } ->
    Format.fprintf fmt
      "SCFP layout: %d jalr-flavoured edges converge on one block; the destination link patch \
       needs a unique indirect predecessor" sites
  | Empty_program -> Format.fprintf fmt "program has no instructions"

exception Fail of error

(* ------------------------------------------------------------------ *)
(* Chunks: maximal single-entry straight-line runs.                    *)
(* ------------------------------------------------------------------ *)

type terminator =
  | T_fall
  | T_branch of { taken : int }  (* chunk id; also falls through *)
  | T_jump of int
  | T_call of { targets : int list; indirect : bool }
  | T_ret of { rps : int list }
  | T_funnel of int  (* funnel class id *)
  | T_indirect of { targets : int list }
  | T_halt

type chunk = {
  c_id : int;
  head : int;  (* original instruction index *)
  body : int list;  (* non-terminator instructions, in order *)
  term_insn : int option;  (* original index of the control-flow terminator *)
  mutable term : terminator;  (* chunk ids resolved after chunking *)
}

(* ------------------------------------------------------------------ *)
(* Layout nodes (pre-address blocks) and edges.                        *)
(* ------------------------------------------------------------------ *)

type slot = S_orig of int | S_pad | S_jump_out | S_synth of Insn.t

type flavor = F_fall | F_taken | F_jump | F_call | F_ret | F_indirect | F_reset

type edge = { e_src : src; mutable e_dst : int; flavor : flavor }
and src = Reset | From of int

type node = {
  n_id : int;
  mutable n_kind : Block.kind;
  n_role : role;
  n_slots : slot array;
  mutable n_in : edge list;
  mutable n_out : edge list;
}

(* ------------------------------------------------------------------ *)
(* Union-find for return-funnel classes.                               *)
(* ------------------------------------------------------------------ *)

let uf_find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let r = go i in
  let rec compress i = if parent.(i) <> r then (let p = parent.(i) in parent.(i) <- r; compress p) in
  compress i;
  r

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(ra) <- rb

(* ------------------------------------------------------------------ *)

(* [backend] selects the layout profile. SOFIA (the default) answers
   convergent control flow with multiplexor blocks: mux heads, bridges
   for branch-falls into them, and trampoline trees reducing fan-in to
   2. SCFP needs none of that — every block is Exec with its single
   port at offset 0 and arbitrary fan-in, because the sponge patch
   table (see scfp.ml) reconciles predecessors instead of the block
   geometry. Funnels and return shims are kept under SCFP: they are
   what make the jalr-predecessor of every return point unique, which
   the destination-indexed link patch requires. *)
let layout ?(backend = Backend_id.Sofia) (program : Program.t) =
  try
    let scfp = backend = Backend_id.Scfp in
    let n = Array.length program.Program.text in
    if n = 0 then raise (Fail Empty_program);
    let cfg = match Cfg.build program with Ok c -> c | Error es -> raise (Fail (Cfg_errors es)) in
    let reachable = Cfg.reachable cfg in
    let is_cf i = Insn.is_control_flow program.Program.text.(i) in
    let entry_idx =
      match Program.index_of_address program program.Program.entry with
      | Some e -> e
      | None -> 0
    in

    (* ---- funnel classes over ret instructions ---- *)
    let ret_indices =
      List.filter (fun i -> match Cfg.kind cfg i with Cfg.Ret _ -> true | _ -> false)
        (List.init n (fun i -> i))
      |> List.filter (fun i -> reachable.(i))
    in
    let rets_of_function f =
      List.filter (fun r -> List.mem f (Cfg.owners cfg r)) ret_indices
    in
    let parent = Array.init n (fun i -> i) in
    (* all rets of one function belong together *)
    List.iter
      (fun f ->
        match rets_of_function f with
        | [] -> ()
        | first :: rest -> List.iter (fun r -> uf_union parent first r) rest)
      (Cfg.entries cfg);
    (* rets of functions sharing a multi-target indirect call site too *)
    for i = 0 to n - 1 do
      if reachable.(i) then
        match Cfg.kind cfg i with
        | Cfg.Call { targets; _ } when Insn.is_indirect program.Program.text.(i) ->
          let all_rets = List.concat_map rets_of_function targets in
          (match all_rets with
           | [] -> ()
           | first :: rest -> List.iter (fun r -> uf_union parent first r) rest)
        | Cfg.Call _ | Cfg.Straight | Cfg.Cond_branch _ | Cfg.Jump _ | Cfg.Ret _
        | Cfg.Indirect_jump _ | Cfg.Stop -> ()
    done;
    let class_members = Hashtbl.create 8 in
    List.iter
      (fun r ->
        let c = uf_find parent r in
        Hashtbl.replace class_members c (r :: (try Hashtbl.find class_members c with Not_found -> [])))
      ret_indices;
    (* a class needs a funnel iff it contains ≥2 ret instructions *)
    let funnel_of_ret = Hashtbl.create 8 in
    let funnel_classes = ref [] in
    Hashtbl.iter
      (fun c members ->
        if List.length members >= 2 then begin
          funnel_classes := (c, List.sort compare members) :: !funnel_classes;
          List.iter (fun r -> Hashtbl.replace funnel_of_ret r c) members
        end)
      class_members;
    let funnel_classes = List.sort compare !funnel_classes in

    (* ---- leaders and chunks ---- *)
    let leader = Array.make n false in
    leader.(entry_idx) <- true;
    for i = 0 to n - 1 do
      if reachable.(i) then begin
        let preds = Cfg.predecessors cfg i in
        if List.length preds > 1 then leader.(i) <- true;
        (match preds with [ p ] when p = i - 1 -> () | [] | _ :: _ -> leader.(i) <- true);
        if i > 0 && is_cf (i - 1) then leader.(i) <- true
      end
    done;

    let chunks = ref [] in
    let chunk_of = Array.make n (-1) in
    let next_chunk_id = ref 0 in
    let i = ref 0 in
    while !i < n do
      if reachable.(!i) && leader.(!i) then begin
        let head = !i in
        let insns = ref [ head ] in
        let j = ref (head + 1) in
        if not (is_cf head) then begin
          let continue = ref true in
          while !continue && !j < n && reachable.(!j) && not leader.(!j) do
            insns := !j :: !insns;
            if is_cf !j then continue := false;
            incr j
          done
        end
        else j := head + 1;
        let insn_list = List.rev !insns in
        let last = List.nth insn_list (List.length insn_list - 1) in
        let body, term_insn =
          if is_cf last then
            (List.filter (fun k -> k <> last) insn_list, Some last)
          else (insn_list, None)
        in
        let c = { c_id = !next_chunk_id; head; body; term_insn; term = T_fall } in
        incr next_chunk_id;
        chunks := c :: !chunks;
        List.iter (fun k -> chunk_of.(k) <- c.c_id) insn_list;
        i := last + 1
      end
      else incr i
    done;
    let chunks = Array.of_list (List.rev !chunks) in
    let nchunks = Array.length chunks in
    if nchunks = 0 then raise (Fail Empty_program);
    let chunk_head_of idx =
      let c = chunk_of.(idx) in
      assert (c >= 0);
      c
    in

    (* resolve terminators *)
    Array.iter
      (fun c ->
        match c.term_insn with
        | None ->
          let last = match List.rev c.body with x :: _ -> x | [] -> c.head in
          c.term <- (match Cfg.kind cfg last with Cfg.Stop -> T_halt | _ -> T_fall)
        | Some t ->
          c.term <-
            (match Cfg.kind cfg t with
             | Cfg.Cond_branch { taken; _ } -> T_branch { taken = chunk_head_of taken }
             | Cfg.Jump tgt -> T_jump (chunk_head_of tgt)
             | Cfg.Call { targets; _ } ->
               T_call
                 { targets = List.map chunk_head_of targets;
                   indirect = Insn.is_indirect program.Program.text.(t) }
             | Cfg.Ret { return_points } ->
               (match Hashtbl.find_opt funnel_of_ret t with
                | Some cls -> T_funnel cls
                | None -> T_ret { rps = List.map chunk_head_of return_points })
             | Cfg.Indirect_jump { targets } ->
               T_indirect { targets = List.map chunk_head_of targets }
             | Cfg.Stop -> T_halt
             | Cfg.Straight -> T_fall))
      chunks;

    let next_chunk c =
      (* the chunk beginning right after this chunk's last instruction *)
      let last = match c.term_insn with Some t -> t | None -> (match List.rev c.body with x :: _ -> x | [] -> c.head) in
      if last + 1 < n && chunk_of.(last + 1) >= 0 then Some chunk_of.(last + 1) else None
    in

    (* funnel class -> (funnel id in a dense numbering, members, rps) *)
    let funnel_ids = Hashtbl.create 8 in
    List.iteri (fun k (c, _) -> Hashtbl.replace funnel_ids c k) funnel_classes;
    let funnel_rps =
      List.map
        (fun (_, members) ->
          List.concat_map
            (fun r ->
              match Cfg.kind cfg r with
              | Cfg.Ret { return_points } -> List.map chunk_head_of return_points
              | _ -> [])
            members
          |> List.sort_uniq compare)
        funnel_classes
    in
    let funnel_rps = Array.of_list funnel_rps in
    let nfunnels = Array.length funnel_rps in

    (* ---- chunk-level in-degree and ret-in counts (dry run) ---- *)
    let indeg = Array.make nchunks 0 in
    let ret_in = Array.make nchunks 0 in
    indeg.(chunk_head_of entry_idx) <- 1;
    (* reset edge *)
    Array.iter
      (fun c ->
        let fall () =
          match next_chunk c with
          | Some d -> indeg.(d) <- indeg.(d) + 1
          | None -> ()
        in
        match c.term with
        | T_fall -> fall ()
        | T_branch { taken } ->
          indeg.(taken) <- indeg.(taken) + 1;
          fall ()
        | T_jump d -> indeg.(d) <- indeg.(d) + 1
        | T_call { targets; _ } -> List.iter (fun d -> indeg.(d) <- indeg.(d) + 1) targets
        | T_ret { rps } ->
          List.iter
            (fun d ->
              indeg.(d) <- indeg.(d) + 1;
              ret_in.(d) <- ret_in.(d) + 1)
            rps
        | T_funnel _ -> ()
        | T_indirect { targets } -> List.iter (fun d -> indeg.(d) <- indeg.(d) + 1) targets
        | T_halt -> ())
      chunks;
    Array.iter
      (fun rps ->
        List.iter
          (fun d ->
            indeg.(d) <- indeg.(d) + 1;
            ret_in.(d) <- ret_in.(d) + 1)
          rps)
      funnel_rps;
    Array.iteri (fun c r -> if r > 1 then assert false else ignore c) ret_in;

    let head_is_mux c = (not scfp) && indeg.(c) >= 2 in
    let needs_shim c = ret_in.(c) >= 1 && indeg.(c) >= 2 in

    (* ---- node construction ---- *)
    let nodes : node list ref = ref [] in
    let order : int list ref = ref [] in
    let node_count = ref 0 in
    let node_tbl = Hashtbl.create 64 in
    let new_node kind role slots =
      let id = !node_count in
      incr node_count;
      let node = { n_id = id; n_kind = kind; n_role = role; n_slots = slots; n_in = []; n_out = [] } in
      nodes := node :: !nodes;
      order := id :: !order;
      Hashtbl.replace node_tbl id node;
      node
    in
    let node_of id = Hashtbl.find node_tbl id in

    let shim_of_chunk = Hashtbl.create 8 in
    let head_node_of_chunk = Array.make nchunks (-1) in
    let last_node_of_chunk = Array.make nchunks (-1) in
    let node_of_orig = Array.make n (-1) in
    let slot_of_orig = Array.make n (-1) in
    let piece_fall_pairs = ref [] in
    let bridge_of_chunk = Hashtbl.create 8 in

    Array.iter
      (fun c ->
        (* return shim first: it must sit at the call site + 4 *)
        if needs_shim c.c_id then begin
          let slots = Array.make 6 S_pad in
          slots.(5) <- S_jump_out;
          let shim = new_node Block.Exec Shim slots in
          Hashtbl.replace shim_of_chunk c.c_id shim.n_id
        end;

        let head_kind = if head_is_mux c.c_id then Block.Mux else Block.Exec in
        (* split into pieces *)
        let pieces = ref [] in
        let cur = ref [] in
        let cur_kind = ref head_kind in
        let cap () = Block.insn_slots !cur_kind in
        let pos () = List.length !cur in
        let flush () =
          let k = !cur_kind in
          let c = cap () in
          let slots = Array.make c S_pad in
          List.iteri (fun idx s -> slots.(idx) <- s) (List.rev !cur);
          ignore c;
          let node = new_node k Primary slots in
          (match !pieces with prev :: _ -> piece_fall_pairs := (prev, node.n_id) :: !piece_fall_pairs | [] -> ());
          pieces := node.n_id :: !pieces;
          cur := [];
          cur_kind := Block.Exec
        in
        let add slot = cur := slot :: !cur in
        let place_body i =
          let insn = program.Program.text.(i) in
          if pos () = cap () then flush ();
          if Insn.is_store insn then
            while Block.store_banned_slot !cur_kind (pos ()) do
              add S_pad;
              if pos () = cap () then flush ()
            done;
          node_of_orig.(i) <- !node_count;
          (* the node is created at flush time; record position and fix node id later *)
          slot_of_orig.(i) <- pos ();
          add (S_orig i)
        in
        (* record node ids properly: we patch node_of_orig after flush by
           scanning slots; simpler: do a second pass after all flushes *)
        List.iter place_body c.body;
        let place_last slot =
          if pos () = cap () then flush ();
          while pos () < cap () - 1 do add S_pad done;
          (match slot with
           | S_orig i -> slot_of_orig.(i) <- pos ()
           | S_pad | S_jump_out | S_synth _ -> ());
          add slot;
          flush ()
        in
        (match c.term with
         | T_branch _ | T_jump _ | T_call _ | T_ret _ | T_indirect _ ->
           (match c.term_insn with
            | Some t -> place_last (S_orig t)
            | None -> assert false)
         | T_funnel _ -> place_last S_jump_out
         | T_halt ->
           (match c.term_insn with
            | Some t -> place_last (S_orig t)
            | None -> if !cur <> [] || !pieces = [] then flush ())
         | T_fall ->
           let fall_to_mux =
             match next_chunk c with Some d -> head_is_mux d | None -> false
           in
           if fall_to_mux then place_last S_jump_out
           else if !cur <> [] || !pieces = [] then flush ());
        let pieces = List.rev !pieces in
        (match pieces with
         | [] -> assert false
         | first :: _ ->
           head_node_of_chunk.(c.c_id) <- first;
           last_node_of_chunk.(c.c_id) <- List.nth pieces (List.length pieces - 1));
        (* bridge for a conditional branch falling into a mux head *)
        (match c.term with
         | T_branch _ ->
           (match next_chunk c with
            | Some d when head_is_mux d ->
              let slots = Array.make 6 S_pad in
              slots.(5) <- S_jump_out;
              let b = new_node Block.Exec Bridge slots in
              Hashtbl.replace bridge_of_chunk c.c_id b.n_id
            | Some _ | None -> ())
         | T_fall | T_jump _ | T_call _ | T_ret _ | T_funnel _ | T_indirect _ | T_halt -> ()))
      chunks;

    (* fix node_of_orig: scan every node's slots *)
    List.iter
      (fun nd ->
        Array.iteri
          (fun s slot ->
            match slot with
            | S_orig i ->
              node_of_orig.(i) <- nd.n_id;
              slot_of_orig.(i) <- s
            | S_pad | S_jump_out | S_synth _ -> ())
          nd.n_slots)
      !nodes;

    (* funnel nodes *)
    let funnel_node = Array.make nfunnels (-1) in
    List.iteri
      (fun k (_cls, members) ->
        let indeg = List.length members in
        let kind = if (not scfp) && indeg >= 2 then Block.Mux else Block.Exec in
        let cap = Block.insn_slots kind in
        let slots = Array.make cap S_pad in
        slots.(cap - 1) <- S_synth (Insn.Jalr (Reg.zero, Reg.ra, 0));
        let f = new_node kind Funnel slots in
        funnel_node.(k) <- f.n_id)
      funnel_classes;

    (* ---- edges ---- *)
    let add_edge e_src e_dst flavor =
      let e = { e_src; e_dst; flavor } in
      (match e_src with
       | From s -> (node_of s).n_out <- (node_of s).n_out @ [ e ]
       | Reset -> ());
      (node_of e_dst).n_in <- (node_of e_dst).n_in @ [ e ];
      e
    in
    let indirect_edges_to_chunk : (int, edge list) Hashtbl.t = Hashtbl.create 8 in
    let note_indirect chunk e =
      Hashtbl.replace indirect_edges_to_chunk chunk
        (e :: (try Hashtbl.find indirect_edges_to_chunk chunk with Not_found -> []))
    in

    let reset_edge = add_edge Reset head_node_of_chunk.(chunk_head_of entry_idx) F_reset in

    List.iter (fun (a, b) -> ignore (add_edge (From a) b F_fall)) (List.rev !piece_fall_pairs);

    let ret_destination d =
      match Hashtbl.find_opt shim_of_chunk d with
      | Some s -> s
      | None -> head_node_of_chunk.(d)
    in

    Array.iter
      (fun c ->
        let src = From last_node_of_chunk.(c.c_id) in
        (match Hashtbl.find_opt shim_of_chunk c.c_id with
         | Some s -> ignore (add_edge (From s) head_node_of_chunk.(c.c_id) F_jump)
         | None -> ());
        match c.term with
        | T_fall ->
          (match next_chunk c with
           | Some d ->
             if head_is_mux d then ignore (add_edge src head_node_of_chunk.(d) F_jump)
             else ignore (add_edge src head_node_of_chunk.(d) F_fall)
           | None -> ())
        | T_branch { taken } ->
          ignore (add_edge src head_node_of_chunk.(taken) F_taken);
          (match next_chunk c with
           | Some d ->
             if head_is_mux d then begin
               let b = Hashtbl.find bridge_of_chunk c.c_id in
               ignore (add_edge src b F_fall);
               ignore (add_edge (From b) head_node_of_chunk.(d) F_jump)
             end
             else ignore (add_edge src head_node_of_chunk.(d) F_fall)
           | None -> ())
        | T_jump d -> ignore (add_edge src head_node_of_chunk.(d) F_jump)
        | T_call { targets; indirect } ->
          List.iter
            (fun d ->
              let e = add_edge src head_node_of_chunk.(d) (if indirect then F_indirect else F_call) in
              if indirect then note_indirect d e)
            targets
        | T_ret { rps } -> List.iter (fun d -> ignore (add_edge src (ret_destination d) F_ret)) rps
        | T_funnel cls ->
          let k = Hashtbl.find funnel_ids cls in
          ignore (add_edge src funnel_node.(k) F_jump)
        | T_indirect { targets } ->
          List.iter
            (fun d ->
              let e = add_edge src head_node_of_chunk.(d) F_indirect in
              note_indirect d e)
            targets
        | T_halt -> ())
      chunks;

    Array.iteri
      (fun k rps ->
        List.iter (fun d -> ignore (add_edge (From funnel_node.(k)) (ret_destination d) F_ret)) rps)
      funnel_rps;

    (* ---- multiplexor trees: reduce every node to ≤ 2 in-edges ---- *)
    if not scfp then begin
      let work = Queue.create () in
      List.iter (fun nd -> Queue.add nd.n_id work) (List.rev !nodes);
      while not (Queue.is_empty work) do
        let id = Queue.pop work in
        let nd = node_of id in
        while List.length nd.n_in > 2 do
          match nd.n_in with
          | e1 :: e2 :: rest ->
            let slots = Array.make 5 S_pad in
            slots.(4) <- S_jump_out;
            let tramp = new_node Block.Mux Trampoline slots in
            e1.e_dst <- tramp.n_id;
            e2.e_dst <- tramp.n_id;
            tramp.n_in <- [ e1; e2 ];
            let bridge_edge = { e_src = From tramp.n_id; e_dst = id; flavor = F_jump } in
            tramp.n_out <- [ bridge_edge ];
            nd.n_in <- rest @ [ bridge_edge ]
          | _ -> assert false
        done
      done
    end;

    (* ---- kind consistency ---- *)
    List.iter
      (fun nd ->
        let d = List.length nd.n_in in
        if scfp then begin
          assert (d >= 1);
          assert (nd.n_kind = Block.Exec);
          (* the destination link patch needs a unique jalr predecessor *)
          let jalr_in =
            List.length (List.filter (fun e -> e.flavor = F_ret || e.flavor = F_indirect) nd.n_in)
          in
          if jalr_in > 1 then raise (Fail (Indirect_fanin_unsupported { sites = jalr_in }))
        end
        else begin
          let expected = if d >= 2 then Block.Mux else Block.Exec in
          assert (d >= 1 && d <= 2);
          assert (nd.n_kind = expected)
        end)
      !nodes;

    (* ---- addresses and ports ---- *)
    let order = Array.of_list (List.rev !order) in
    let position = Hashtbl.create 64 in
    Array.iteri (fun k id -> Hashtbl.replace position id k) order;
    let base_of id = program.Program.text_base + (Block.size_bytes * Hashtbl.find position id) in
    let exit_of id = base_of id + Block.exit_offset in
    let port_of_edge e =
      let dst = node_of e.e_dst in
      if scfp then base_of dst.n_id (* single port at offset 0, any fan-in *)
      else begin
        let offsets = Block.port_offsets dst.n_kind in
        let rec find k = function
          | [] -> assert false
          | e' :: rest -> if e' == e then k else find (k + 1) rest
        in
        let idx = find 0 dst.n_in in
        base_of dst.n_id + List.nth offsets idx
      end
    in
    let prev_pc_of_edge e =
      match e.e_src with Reset -> Block.reset_prev_pc | From s -> exit_of s
    in

    (* adjacency sanity for fall edges *)
    List.iter
      (fun nd ->
        List.iter
          (fun e ->
            if e.flavor = F_fall then begin
              match e.e_src with
              | From s ->
                assert (Hashtbl.find position e.e_dst = Hashtbl.find position s + 1);
                assert ((node_of e.e_dst).n_kind = Block.Exec)
              | Reset -> assert false
            end)
          nd.n_in)
      !nodes;

    (* ---- instruction patching ---- *)
    let out_edge_of_flavor nd fs =
      List.find_opt (fun e -> List.mem e.flavor fs) nd.n_out
    in
    let patch_control nd slot_idx insn =
      let slot_addr = base_of nd.n_id + Block.first_insn_offset nd.n_kind + (4 * slot_idx) in
      match insn with
      | Insn.Branch (c, r1, r2, _) ->
        (match out_edge_of_flavor nd [ F_taken ] with
         | Some e ->
           let port = port_of_edge e in
           let woff = (port - slot_addr) / 4 in
           if not (Sofia_isa.Encoding.branch_offset_fits woff) then
             raise (Fail (Branch_out_of_range { from_addr = slot_addr; to_addr = port }));
           Insn.Branch (c, r1, r2, woff)
         | None -> insn)
      | Insn.Jal (rd, _) ->
        (match out_edge_of_flavor nd [ F_jump; F_call ] with
         | Some e ->
           let port = port_of_edge e in
           let woff = (port - slot_addr) / 4 in
           if not (Sofia_isa.Encoding.jal_offset_fits woff) then
             raise (Fail (Branch_out_of_range { from_addr = slot_addr; to_addr = port }));
           Insn.Jal (rd, woff)
         | None -> insn)
      | Insn.Jalr _ | Insn.Halt _ | Insn.Alu_r _ | Insn.Alu_i _ | Insn.Lui _ | Insn.Load _
      | Insn.Store _ -> insn
    in
    let synth_jump nd slot_idx =
      let slot_addr = base_of nd.n_id + Block.first_insn_offset nd.n_kind + (4 * slot_idx) in
      match out_edge_of_flavor nd [ F_jump ] with
      | Some e ->
        let port = port_of_edge e in
        let woff = (port - slot_addr) / 4 in
        if not (Sofia_isa.Encoding.jal_offset_fits woff) then
          raise (Fail (Branch_out_of_range { from_addr = slot_addr; to_addr = port }));
        Insn.Jal (Reg.zero, woff)
      | None -> assert false
    in

    (* code-pointer resolution for la / .word relocations *)
    let port_for_symbol sym =
      let address =
        match Program.symbol program sym with Some a -> a | None -> assert false
      in
      match Program.index_of_address program address with
      | None -> raise (Fail (Code_pointer_unresolved sym))
      | Some idx ->
        if not reachable.(idx) then raise (Fail (Code_pointer_unresolved sym))
        else begin
          let chunk = chunk_of.(idx) in
          match Hashtbl.find_opt indirect_edges_to_chunk chunk with
          | Some [ e ] -> port_of_edge e
          | Some (_ :: _ :: _) -> raise (Fail (Code_pointer_ambiguous sym))
          | Some [] | None -> raise (Fail (Code_pointer_unresolved sym))
        end
    in
    let la_patch = Hashtbl.create 8 in
    List.iter
      (fun { Program.hi_index; lo_index; la_symbol } ->
        if reachable.(hi_index) then begin
          let port = port_for_symbol la_symbol in
          Hashtbl.replace la_patch hi_index (`Hi port);
          Hashtbl.replace la_patch lo_index (`Lo port)
        end)
      program.Program.la_relocs;

    (* ---- final block table ---- *)
    let blocks =
      Array.map
        (fun id ->
          let nd = node_of id in
          let cap = Block.insn_slots nd.n_kind in
          let insns = Array.make cap Insn.nop in
          let orig_indices = Array.make cap None in
          Array.iteri
            (fun s slot ->
              match slot with
              | S_pad -> insns.(s) <- Insn.nop
              | S_synth i -> insns.(s) <- i
              | S_jump_out -> insns.(s) <- synth_jump nd s
              | S_orig i ->
                orig_indices.(s) <- Some i;
                let insn = program.Program.text.(i) in
                let insn =
                  match Hashtbl.find_opt la_patch i with
                  | Some (`Hi port) ->
                    (match insn with
                     | Insn.Lui (rd, _) -> Insn.Lui (rd, (port lsr 16) land 0xFFFF)
                     | _ -> insn)
                  | Some (`Lo port) ->
                    (match insn with
                     | Insn.Alu_i (Or, rd, rs, _) -> Insn.Alu_i (Or, rd, rs, port land 0xFFFF)
                     | _ -> insn)
                  | None -> insn
                in
                insns.(s) <- patch_control nd s insn)
            nd.n_slots;
          {
            base = base_of id;
            kind = nd.n_kind;
            role = nd.n_role;
            insns;
            entry_prev_pcs = List.map prev_pc_of_edge nd.n_in;
            orig_indices;
          })
        order
    in

    (* ---- patched data image ---- *)
    let data = Bytes.copy program.Program.data in
    List.iter
      (fun (off, sym) ->
        let port = port_for_symbol sym in
        Bytes.blit (Sofia_util.Word.bytes_of_word32_le port) 0 data off 4)
      program.Program.data_word_relocs;

    (* ---- results ---- *)
    let addr_of_orig = Array.make n (-1) in
    for i = 0 to n - 1 do
      if node_of_orig.(i) >= 0 then begin
        let nd = node_of node_of_orig.(i) in
        addr_of_orig.(i) <-
          base_of nd.n_id + Block.first_insn_offset nd.n_kind + (4 * slot_of_orig.(i))
      end
    done;

    let count_role r = Array.fold_left (fun acc b -> if b.role = r then acc + 1 else acc) 0 blocks in
    let count_kind k = Array.fold_left (fun acc b -> if b.kind = k then acc + 1 else acc) 0 blocks in
    let pad_slots =
      Array.fold_left
        (fun acc b ->
          acc
          + Array.fold_left
              (fun a (o : int option) -> match o with None -> a + 1 | Some _ -> a)
              0 b.orig_indices)
        0 blocks
      - (count_role Bridge + count_role Shim + count_role Trampoline + count_role Funnel)
    in
    let unreachable_dropped =
      let r = ref 0 in
      Array.iteri (fun i _ -> if not reachable.(i) then incr r) program.Program.text;
      !r
    in
    let stats =
      {
        original_insns = n;
        original_text_bytes = 4 * n;
        transformed_text_bytes = Block.size_bytes * Array.length blocks;
        exec_blocks = count_kind Block.Exec;
        mux_blocks = count_kind Block.Mux;
        bridge_blocks = count_role Bridge;
        shim_blocks = count_role Shim;
        trampoline_blocks = count_role Trampoline;
        funnel_blocks = count_role Funnel;
        pad_slots;
        unreachable_dropped;
      }
    in
    Result.Ok
      {
        blocks;
        entry = port_of_edge reset_edge;
        text_base = program.Program.text_base;
        data;
        data_base = program.Program.data_base;
        addr_of_orig;
        stats;
      }
  with Fail e -> Result.Error e

let layout_exn ?backend program =
  match layout ?backend program with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Layout.layout: %a" pp_error e)

let block_at t address =
  let rel = address - t.text_base in
  if rel < 0 then None
  else
    let idx = rel / Block.size_bytes in
    if idx < Array.length t.blocks then Some t.blocks.(idx) else None
