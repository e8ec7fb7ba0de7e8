(* Small helpers: clocks, files, order statistics, JSON and Prometheus
   text. *)

let now = Unix.gettimeofday

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Copy the regular files of a flat directory. *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Linearly interpolated quantile of an unsorted sample; nan when empty. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let json_num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_str s = "\"" ^ Balg.Obs.json_escape s ^ "\""

(* [(name, value, unit)] as the benchmark's metrics object. *)
let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num v)
             (json_str u))
         ms)
  ^ "}"

(* Sample value of an unlabelled Prometheus line [name value]. *)
let prom_value text name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ n; v ] when String.equal n name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0.
