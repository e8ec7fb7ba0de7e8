(* Host-speed calibration.  The benchmark runs on shared two-core
   hosts whose speed drifts by 10-40% over tens of seconds (a pure CPU
   loop shows the same drift), which would swamp any change under test.
   So every run times a fixed kernel at intervals and reports its times
   rescaled to a host on which the kernel takes [reference_s].  The
   kernel uses the OCaml standard library only, so no change to this
   repository's code can move it. *)

(* Kernel time on an unloaded 2-vCPU x86-64 host; only sets the scale of
   the rescaled figures. *)
let reference_s = 0.010

let kernel () =
  let st = Random.State.make [| 42 |] in
  let a = Array.init 20_000 (fun _ -> Random.State.int st 1_000_000) in
  Array.sort compare a;
  let b = Buffer.create 16 in
  Array.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    a;
  let h = Hashtbl.create 16 in
  String.iteri (fun i c -> if i mod 7 = 0 then Hashtbl.replace h (i land 4095) c) (Buffer.contents b);
  Hashtbl.length h

type t = { mutable samples : float list; mutable spent_s : float }

let create () = { samples = []; spent_s = 0. }

(* Time the kernel once, record it and return its duration. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Unix.gettimeofday () -. t0 in
  t.samples <- dt :: t.samples;
  t.spent_s <- t.spent_s +. dt;
  dt

(* Multiply a measured duration by a factor to rescale it to the
   reference host (a rate divides by it). *)
let factor_of kernel_s = reference_s /. kernel_s
let factor t = factor_of (Util.median t.samples)
