(* Tests for the Lemma 5.4 construction and the pebble game engines. *)

open Balg
module C = Pebble.Construction
module G = Pebble.Game

let test_in_out_construction () =
  List.iter
    (fun n ->
      let inn, out = C.in_out n in
      Alcotest.(check int)
        (Printf.sprintf "|In_%d| = 2^(n/2-1)" n)
        (1 lsl ((n / 2) - 1))
        (List.length inn);
      Alcotest.(check int) "families have equal size" (List.length inn)
        (List.length out);
      (* all members have cardinality n/2 *)
      List.iter
        (fun s -> Alcotest.(check int) "half-size subset" (n / 2) (C.set_cardinal s))
        (inn @ out);
      (* disjoint families, no duplicates *)
      let all = List.sort_uniq compare (inn @ out) in
      Alcotest.(check int) "disjoint and duplicate-free"
        (List.length inn + List.length out)
        (List.length all))
    [ 4; 6; 8; 10 ]

let test_property_one () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "Property (1) at n=%d" n)
        true (C.property_one n))
    [ 4; 6; 8; 10; 12 ]

let test_graph_degrees () =
  let g = C.g_balanced 6 and g' = C.g_flipped 6 in
  Alcotest.(check int) "G: indeg alpha = |In|" 4 (C.in_degree g g.C.alpha);
  Alcotest.(check int) "G: outdeg alpha = |Out|" 4 (C.out_degree g g.C.alpha);
  Alcotest.(check int) "G': indeg alpha grows" 5 (C.in_degree g' g'.C.alpha);
  Alcotest.(check int) "G': outdeg alpha shrinks" 3 (C.out_degree g' g'.C.alpha);
  Alcotest.(check int) "same node count" (List.length (C.nodes g))
    (List.length (C.nodes g'))

(* Theorem 5.2: the BALG^2 query distinguishes G from G'. *)
let test_phi_distinguishes () =
  List.iter
    (fun n ->
      let g = C.g_balanced n and g' = C.g_flipped n in
      let run graph =
        let env = Eval.env_of_list [ ("G", C.edges_value graph) ] in
        Eval.truthy (Expect.ok (Eval.run env (C.phi_query graph)))
      in
      (* also check the query typechecks at bag nesting 2 *)
      let tenv = Typecheck.env_of_list [ ("G", C.edge_ty) ] in
      Alcotest.(check int)
        (Printf.sprintf "nesting 2 at n=%d" n)
        2
        (Typecheck.max_nesting tenv (C.phi_query g));
      Alcotest.(check bool) "balanced: false" false (run g);
      Alcotest.(check bool) "flipped: true" true (run g'))
    [ 4; 6 ]

(* The permutation machinery. *)
let test_perms () =
  let perms = G.all_perms 3 in
  Alcotest.(check int) "3! permutations" 6 (List.length perms);
  let pi = [| 2; 3; 1 |] in
  Alcotest.(check int) "mask image" 0b110 (G.apply_mask pi 0b011);
  let inv = G.invert pi in
  Alcotest.(check int) "inverse" 0b011 (G.apply_mask inv 0b110)

let test_partial_iso () =
  let g = C.g_balanced 4 and g' = C.g_flipped 4 in
  (* picking alpha in both: fine *)
  let p0 = [ (G.OSet g.C.alpha, G.OSet g'.C.alpha) ] in
  Alcotest.(check bool) "alpha-alpha ok" true (G.partial_iso g g' p0);
  (* flipped edge witnessed: alpha plus the flipped out-node *)
  let o = List.hd g.C.out_nodes in
  let bad = (G.OSet o, G.OSet o) :: p0 in
  Alcotest.(check bool) "edge direction mismatch detected" false
    (G.partial_iso g g' bad);
  (* kind mismatch *)
  Alcotest.(check bool) "atom vs set rejected" false
    (G.partial_iso g g' [ (G.OAtom 1, G.OSet 0b0011) ])

(* Ground truth on small instances: the duplicator wins the 1-move game on
   G_4 vs G'_4 (n = 4 > 2^1). *)
let test_exhaustive_k1 () =
  let g = C.g_balanced 4 and g' = C.g_flipped 4 in
  Alcotest.(check bool) "duplicator wins k=1, n=4" true
    (G.duplicator_wins_exhaustive ~k:1 g g')

(* A trivially distinguishable pair: G_4 against itself with all edges
   removed; two moves let the spoiler exhibit an edge. *)
let test_exhaustive_spoiler_wins () =
  let g = C.g_balanced 4 in
  let empty = { g with C.edges = [] } in
  Alcotest.(check bool) "spoiler wins against edgeless twin" false
    (G.duplicator_wins_exhaustive ~k:2 g empty);
  Alcotest.(check bool) "structure vs itself: duplicator wins" true
    (G.duplicator_wins_exhaustive ~k:2 g g)

(* The proof's strategy agrees with the exhaustive engine where both run. *)
let test_strategy_matches_exhaustive () =
  let g = C.g_balanced 4 and g' = C.g_flipped 4 in
  Alcotest.(check bool) "strategy wins k=1, n=4" true
    (G.duplicator_strategy_wins ~k:1 g g')

(* Lemma 5.4's quantitative content: duplicator survives k moves when
   n > 2^k.  (k=2, n=6 is the slow case; keep it quick enough.) *)
let test_strategy_k2_n6 () =
  let g = C.g_balanced 6 and g' = C.g_flipped 6 in
  Alcotest.(check bool) "strategy wins k=2, n=6" true
    (G.duplicator_strategy_wins ~k:2 g g')

let test_figure_renders () =
  let g = C.g_balanced 6 in
  let s = Format.asprintf "%a" C.render_figure g in
  Alcotest.(check bool) "mentions alpha" true
    (String.length s > 0
    && String.length (List.nth (String.split_on_char '\n' s) 0) > 0)

let () =
  Alcotest.run "pebble"
    [
      ( "construction",
        [
          Alcotest.test_case "In/Out families" `Quick test_in_out_construction;
          Alcotest.test_case "Property (1)" `Quick test_property_one;
          Alcotest.test_case "degrees" `Quick test_graph_degrees;
          Alcotest.test_case "query distinguishes (Thm 5.2)" `Quick
            test_phi_distinguishes;
          Alcotest.test_case "Fig. 1 renders" `Quick test_figure_renders;
        ] );
      ( "game",
        [
          Alcotest.test_case "permutations" `Quick test_perms;
          Alcotest.test_case "partial isomorphism" `Quick test_partial_iso;
          Alcotest.test_case "exhaustive k=1" `Quick test_exhaustive_k1;
          Alcotest.test_case "spoiler wins when distinguishable" `Quick
            test_exhaustive_spoiler_wins;
          Alcotest.test_case "strategy matches exhaustive" `Quick
            test_strategy_matches_exhaustive;
          Alcotest.test_case "strategy k=2 n=6 (Lemma 5.4)" `Slow
            test_strategy_k2_n6;
        ] );
    ]
