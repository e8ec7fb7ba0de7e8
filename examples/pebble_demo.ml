(* The Theorem 5.2 separation, end to end: build the Lemma 5.4 star graphs
   (Fig. 1), distinguish them with one BALG^2 query, and verify that the
   duplicator wins the pebble game — i.e. that no fixed nested relational
   calculus sentence can make the same distinction for all n.

   Run with:  dune exec examples/pebble_demo.exe *)

module C = Pebble.Construction
module G = Pebble.Game
open Balg

let () =
  print_endline "== the BALG^2 / RALG^2 separation (Theorem 5.2) ==\n";

  (* Fig. 1 *)
  let g6 = C.g_balanced 6 and g6' = C.g_flipped 6 in
  Format.printf "%a\n" C.render_figure g6;
  Printf.printf "Property (1) holds for n = 4..12: %b\n\n"
    (List.for_all C.property_one [ 4; 6; 8; 10; 12 ]);

  (* the distinguishing bag query *)
  let run graph =
    match
      Eval.run (Eval.env_of_list [ ("G", C.edges_value graph) ]) (C.phi_query graph)
    with
    | Ok v -> Eval.truthy v
    | Error x -> failwith (Budget.exhaustion_to_string x)
  in
  Printf.printf "BALG^2 query 'indeg(alpha) > outdeg(alpha)':\n";
  Printf.printf "  on G  (balanced): %b\n" (run g6);
  Printf.printf "  on G' (one edge flipped): %b\n\n" (run g6');

  (* the game: the duplicator survives k moves when n > 2^k *)
  let g4 = C.g_balanced 4 and g4' = C.g_flipped 4 in
  Printf.printf "pebble game (duplicator wins = sets cannot distinguish):\n";
  Printf.printf "  exhaustive search, k=1, n=4: %b\n"
    (G.duplicator_wins_exhaustive ~k:1 g4 g4');
  Printf.printf "  proof strategy,   k=1, n=4: %b\n"
    (G.duplicator_strategy_wins ~k:1 g4 g4');
  Printf.printf "  proof strategy,   k=2, n=6: %b\n"
    (G.duplicator_strategy_wins ~k:2 g6 g6');
  print_newline ();

  print_endline
    "so for every quantifier depth k there are graphs (n > 2^k) that no\n\
     CALC1/RALG^2 sentence of that depth separates — while the single bag\n\
     query above separates all of them.  Counting duplicates is real power."
