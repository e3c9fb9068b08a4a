open Anonmem

module Make (P : Protocol.PROTOCOL) = struct
  type sym = {
    sigma : int array;  (** process permutation: [q] plays the role of [sigma.(q)] *)
    sigma_inv : int array;  (** inverse of [sigma] *)
    pi : int array;  (** induced physical-register permutation *)
    pi_inv : int array;  (** inverse of [pi] *)
    rho : (int * int) array;  (** identifier relabeling, as (old, new) pairs *)
    rho_map : int -> int;
        (** [rho] as a precomputed O(1) map (direct-indexed table for the
            small ids every real configuration uses) *)
  }

  let invert_perm p =
    let inv = Array.make (Array.length p) 0 in
    Array.iteri (fun i j -> inv.(j) <- i) p;
    inv

  (* Identifier relabeling as a constant-time function. Ids are small in
     every real configuration, so a direct-indexed table covers them; the
     pair-scan fallback (with early exit) only exists for pathological
     ids. *)
  let rho_fun rho =
    if Array.length rho = 0 then Fun.id
    else begin
      let max_id =
        Array.fold_left (fun acc (a, b) -> max acc (max a b)) 0 rho
      in
      if max_id <= 65_535 then begin
        let tbl = Array.init (max_id + 1) Fun.id in
        Array.iter (fun (a, b) -> tbl.(a) <- b) rho;
        fun i -> if i >= 0 && i <= max_id then Array.unsafe_get tbl i else i
      end
      else
        let len = Array.length rho in
        fun i ->
          let rec go k =
            if k >= len then i
            else
              let a, b = rho.(k) in
              if a = i then b else go (k + 1)
          in
          go 0
    end

  let identity ~n ~m =
    {
      sigma = Array.init n Fun.id;
      sigma_inv = Array.init n Fun.id;
      pi = Array.init m Fun.id;
      pi_inv = Array.init m Fun.id;
      rho = [||];
      rho_map = Fun.id;
    }

  let is_identity s =
    let n = Array.length s.sigma in
    let rec go q = q >= n || (s.sigma.(q) = q && go (q + 1)) in
    go 0

  (* A triple (sigma, pi, rho) is an automorphism of the configuration iff
     - sigma fixes the input vector ([Stdlib.compare] equality, matching
       the explorer's structural state equality);
     - pi, defined as nu_{sigma(0)} o nu_0^{-1}, satisfies
       pi o nu_q = nu_{sigma(q)} for every q, i.e. relabeled processes
       address physical registers exactly as their images do;
     - rho sends ids.(q) to ids.(sigma q) and fixes everything else, in
       particular the reserved empty value 0 (we reject any sigma that
       would relabel an id 0 across the zero/non-zero boundary).
     Under those conditions relabeling commutes with [P.step] for
     symmetric protocols, so the orbit of a reachable state is reachable
     and property verdicts transfer (DESIGN.md §9).

     Rejection is the hot path when the group is enumerated, so every
     scan below stops at the first mismatch. *)
  let admissible ~ids ~inputs ~namings sigma =
    let n = Array.length sigma in
    let rec inputs_ok q =
      q >= n
      || (Stdlib.compare inputs.(sigma.(q)) inputs.(q) = 0
         && (ids.(q) = 0) = (ids.(sigma.(q)) = 0)
         && inputs_ok (q + 1))
    in
    if not (inputs_ok 0) then None
    else begin
      let pi = Naming.compose namings.(sigma.(0)) (Naming.invert namings.(0)) in
      let rec namings_ok q =
        q >= n
        || (Naming.equal (Naming.compose pi namings.(q)) namings.(sigma.(q))
           && namings_ok (q + 1))
      in
      if not (namings_ok 0) then None
      else begin
        let rho = ref [] in
        for q = n - 1 downto 0 do
          if ids.(q) <> ids.(sigma.(q)) then
            rho := (ids.(q), ids.(sigma.(q))) :: !rho
        done;
        let rho = Array.of_list !rho in
        let pi = Naming.to_array pi in
        Some
          {
            sigma;
            sigma_inv = invert_perm sigma;
            pi;
            pi_inv = invert_perm pi;
            rho;
            rho_map = rho_fun rho;
          }
      end
    end

  let max_procs = 7

  (* The reduction silently explores the full graph in exactly these two
     cases; callers surface the flag instead of hiding the degradation
     (Checker_stats.degraded, `coordctl … --canon` notice). *)
  let degraded ~n = (not P.symmetric) || n > max_procs

  let group ~ids ~inputs ~namings =
    let n = Array.length ids in
    let m = Naming.size namings.(0) in
    if degraded ~n then [ identity ~n ~m ]
    else
      Naming.all n
      |> List.filter_map (fun perm ->
             admissible ~ids ~inputs ~namings (Naming.to_array perm))

  let apply sym mem locals =
    let f = sym.rho_map in
    let mem' = Array.copy mem in
    Array.iteri (fun k v -> mem'.(sym.pi.(k)) <- P.map_value_ids f v) mem;
    let locals' = Array.copy locals in
    Array.iteri (fun q l -> locals'.(sym.sigma.(q)) <- P.map_local_ids f l) locals;
    (mem', locals')

  (* Structural order on (mem, locals) pairs. The representative must be
     chosen structurally, not by encoded key: interning codes depend on
     discovery order, which differs across runs and domain counts. *)
  let compare_image (m1, l1) (m2, l2) =
    let c = ref 0 in
    let k = ref 0 in
    let lm = Array.length m1 in
    while !c = 0 && !k < lm do
      c := P.Value.compare m1.(!k) m2.(!k);
      incr k
    done;
    let q = ref 0 in
    let ln = Array.length l1 in
    while !c = 0 && !q < ln do
      c := P.compare_local l1.(!q) l2.(!q);
      incr q
    done;
    !c

  (* Reference canonizer: materialize every orbit image and sort. Kept as
     the oracle the incremental path below is cross-checked against (and
     as the spec of what "canonical" means); the explorers use the
     incremental path exclusively. *)
  let canonize syms mem locals =
    match syms with
    | [] | [ _ ] -> (mem, locals, 1)
    | syms ->
      let images =
        List.map
          (fun s -> if is_identity s then (mem, locals) else apply s mem locals)
          syms
      in
      let sorted = List.sort_uniq compare_image images in
      let best = List.hd sorted in
      (fst best, snd best, List.length sorted)

  (* ------------------------------------------------------------------ *)
  (* incremental canonicalization                                        *)
  (* ------------------------------------------------------------------ *)

  (* The incremental path rewrites the lex-min search in the interned
     code space of the exploration's codec. Per state it computes the
     code vector once, then walks the group comparing each image to the
     current best slot by slot IN CODES (codes witness structural
     equality exactly: the codec interns by [Value.compare] /
     [compare_local]); only the single first-differing slot is compared
     structurally to decide direction, because code order is
     discovery-order noise. Most triples die at their first differing
     slot without an image ever being materialized — those rejections
     are the [pruned] counter. The per-sym image of each interned code
     ([vtab]/[ltab]) is memoized, so [map_value_ids]/[map_local_ids]
     runs once per (sym, value) pair for the whole exploration: the
     orbit data a successor needs is a cache hit away from what its
     parent already paid for.

     A ctx is single-threaded by construction (one per worker domain);
     only the codec behind [value_code]/[local_code] is shared, and that
     is CAS-safe. *)
  type ctx = {
    syms : sym array;
    id_index : int;  (* position of the identity in [syms] *)
    order : int;
    value_code : P.Value.t -> int;
    local_code : P.local -> int;
    pack : int array -> int array -> string;
    vtab : (int * P.Value.t) option array array;
        (* vtab.(s).(c): (code, value) of the rho_s-image of the value
           interned at code [c] *)
    ltab : (int * P.local) option array array;
    (* scratch, sized (m, n) once per exploration *)
    vc : int array;  (* code vector of the state being canonized *)
    lc : int array;
    best_mem : P.Value.t array;
    best_loc : P.local array;
    best_vc : int array;
    best_lc : int array;
    mutable best_fresh : bool;
        (* the best buffers hold a non-identity image (false: the state
           itself is still the best) *)
    mutable hint : int;
        (* sym that minimized the previous state; tried first, because
           BFS expands siblings back to back and siblings overwhelmingly
           share their minimizer — starting low makes every later
           rejection a first-slot code mismatch *)
    mutable pruned : int;
    mutable ties : int;
        (* syms seen so far in the current search whose image equals the
           current best; see [search] *)
  }

  let make_ctx ~syms ~value_code ~local_code ~pack ~init:(mem0, locals0) =
    let syms = Array.of_list syms in
    let id_index =
      let rec go i =
        if i >= Array.length syms then 0
        else if is_identity syms.(i) then i
        else go (i + 1)
      in
      go 0
    in
    let m = Array.length mem0 and n = Array.length locals0 in
    {
      syms;
      id_index;
      order = Array.length syms;
      value_code;
      local_code;
      pack;
      vtab = Array.map (fun _ -> [||]) syms;
      ltab = Array.map (fun _ -> [||]) syms;
      vc = Array.make m 0;
      lc = Array.make n 0;
      best_mem = Array.make m P.Value.init;
      best_loc = Array.make n locals0.(0);
      best_vc = Array.make m 0;
      best_lc = Array.make n 0;
      best_fresh = false;
      hint = id_index;
      pruned = 0;
      ties = 1;
    }

  let pruned ctx = ctx.pruned

  let grow row c =
    let len = Array.length row in
    if c < len then row
    else begin
      let row' = Array.make (max 64 (max (2 * len) (c + 1))) None in
      Array.blit row 0 row' 0 len;
      row'
    end

  (* (code, value) of the rho_s-image of the value whose code is [c] and
     whose content is [v]; memoized on (s, c). The hit path is inline. *)
  let mapped_v_slow ctx s c v =
    let row = grow ctx.vtab.(s) c in
    if row != ctx.vtab.(s) then ctx.vtab.(s) <- row;
    match row.(c) with
    | Some cv -> cv
    | None ->
      let v' = P.map_value_ids ctx.syms.(s).rho_map v in
      let cv = (ctx.value_code v', v') in
      row.(c) <- Some cv;
      cv

  let mapped_v ctx s c v =
    let row = Array.unsafe_get ctx.vtab s in
    if c < Array.length row then
      match Array.unsafe_get row c with
      | Some cv -> cv
      | None -> mapped_v_slow ctx s c v
    else mapped_v_slow ctx s c v

  let mapped_l_slow ctx s c l =
    let row = grow ctx.ltab.(s) c in
    if row != ctx.ltab.(s) then ctx.ltab.(s) <- row;
    match row.(c) with
    | Some cl -> cl
    | None ->
      let l' = P.map_local_ids ctx.syms.(s).rho_map l in
      let cl = (ctx.local_code l', l') in
      row.(c) <- Some cl;
      cl

  let mapped_l ctx s c l =
    let row = Array.unsafe_get ctx.ltab s in
    if c < Array.length row then
      match Array.unsafe_get row c with
      | Some cl -> cl
      | None -> mapped_l_slow ctx s c l
    else mapped_l_slow ctx s c l

  (* Intern the state's codes into the ctx scratch and return its packed
     key (the key of the state AS IS, before canonicalization — what the
     explorers' raw-successor cache is indexed by). Must be followed by
     [canonize_keyed] on the same state before the ctx is reused. *)
  let state_key ctx mem locals =
    let m = Array.length mem and n = Array.length locals in
    for k = 0 to m - 1 do
      ctx.vc.(k) <- ctx.value_code mem.(k)
    done;
    for q = 0 to n - 1 do
      ctx.lc.(q) <- ctx.local_code locals.(q)
    done;
    ctx.pack ctx.vc ctx.lc

  (* The same scratch load from a key the caller already holds: [load]
     fills the register and local code vectors from it. No interning —
     the codes are the codec's own. *)
  let load_codes ctx load = load ctx.vc ctx.lc

  (* Compare the image of the loaded state under sym [s] to the current
     best, and make it the best if it is strictly smaller. *)
  let consider ctx mem locals s =
    let m = Array.length mem and n = Array.length locals in
    let sym = ctx.syms.(s) in
    (* first slot where the image differs from best, in code space *)
    let diff_mem = ref (-1) in
    let j = ref 0 in
    while !diff_mem < 0 && !j < m do
      let src = sym.pi_inv.(!j) in
      let c, _ = mapped_v ctx s ctx.vc.(src) mem.(src) in
      if c <> ctx.best_vc.(!j) then diff_mem := !j;
      incr j
    done;
    let diff_loc = ref (-1) in
    if !diff_mem < 0 then begin
      let q = ref 0 in
      while !diff_loc < 0 && !q < n do
        let src = sym.sigma_inv.(!q) in
        let c, _ = mapped_l ctx s ctx.lc.(src) locals.(src) in
        if c <> ctx.best_lc.(!q) then diff_loc := !q;
        incr q
      done
    end;
    if !diff_mem < 0 && !diff_loc < 0 then ctx.ties <- ctx.ties + 1
    else begin
      (* one structural comparison at the first differing slot
         decides the direction; codes only witness (in)equality *)
      let c =
        if !diff_mem >= 0 then begin
          let j = !diff_mem in
          let src = sym.pi_inv.(j) in
          let _, v = mapped_v ctx s ctx.vc.(src) mem.(src) in
          let bv = if ctx.best_fresh then ctx.best_mem.(j) else mem.(j) in
          P.Value.compare v bv
        end
        else begin
          let q = !diff_loc in
          let src = sym.sigma_inv.(q) in
          let _, l = mapped_l ctx s ctx.lc.(src) locals.(src) in
          let bl = if ctx.best_fresh then ctx.best_loc.(q) else locals.(q) in
          P.compare_local l bl
        end
      in
      if c > 0 then ctx.pruned <- ctx.pruned + 1
      else begin
        (* new minimum: materialize its image (memoized slot lookups,
           no fresh value allocation) into the best buffers *)
        for k = 0 to m - 1 do
          let src = sym.pi_inv.(k) in
          let cc, v = mapped_v ctx s ctx.vc.(src) mem.(src) in
          ctx.best_vc.(k) <- cc;
          ctx.best_mem.(k) <- v
        done;
        for q = 0 to n - 1 do
          let src = sym.sigma_inv.(q) in
          let cc, l = mapped_l ctx s ctx.lc.(src) locals.(src) in
          ctx.best_lc.(q) <- cc;
          ctx.best_loc.(q) <- l
        done;
        ctx.best_fresh <- true;
        ctx.hint <- s;
        ctx.ties <- 1
      end
    end

  (* The search over the codes [state_key] or [load_codes] loaded: leaves
     the lex-least image in the best buffers ([best_fresh] iff it is not
     the state itself) and returns the orbit size. *)
  let search ctx mem locals =
    let m = Array.length mem and n = Array.length locals in
    ctx.best_fresh <- false;
    for k = 0 to m - 1 do
      ctx.best_vc.(k) <- ctx.vc.(k)
    done;
    for q = 0 to n - 1 do
      ctx.best_lc.(q) <- ctx.lc.(q)
    done;
    (* [ties] = number of syms seen so far whose image equals the current
       best. Whenever a strictly smaller image appears it resets to 1, so
       at the end it is exactly the stabilizer order of the minimum (any
       sym mapping the state to the final best either set it or tied
       it), and orbit = |G| / |stabilizer|. The identity's image is the
       state itself, the starting best. *)
    ctx.ties <- 1;
    let hint = ctx.hint in
    if hint <> ctx.id_index then consider ctx mem locals hint;
    for s = 0 to ctx.order - 1 do
      if s <> hint && s <> ctx.id_index then consider ctx mem locals s
    done;
    assert (ctx.order mod ctx.ties = 0) (* orbit-stabilizer *);
    ctx.order / ctx.ties

  (* Lex-least orbit element of the state whose codes [state_key] just
     loaded, its packed key, and the orbit size. [raw] is the key
     [state_key] returned; it is handed back unchanged when the state is
     already canonical so the common case packs exactly once. The
     returned arrays are the inputs themselves when the state is already
     canonical, fresh copies otherwise — never the scratch buffers. *)
  let canonize_keyed ctx ~raw mem locals =
    let orbit = search ctx mem locals in
    if ctx.best_fresh then
      ( Array.sub ctx.best_mem 0 (Array.length mem),
        Array.sub ctx.best_loc 0 (Array.length locals),
        ctx.pack ctx.best_vc ctx.best_lc,
        orbit )
    else (mem, locals, raw, orbit)

  let canonize_into ctx ~repack mem locals =
    let orbit = search ctx mem locals in
    if ctx.best_fresh then begin
      repack ctx.best_vc ctx.best_lc;
      ( Array.sub ctx.best_mem 0 (Array.length mem),
        Array.sub ctx.best_loc 0 (Array.length locals),
        orbit )
    end
    else (mem, locals, orbit)
end
