let parse_line line =
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let n = String.length line in
  let rec field i =
    if i >= n then finish i
    else if line.[i] = '"' then quoted (i + 1)
    else plain i
  and plain i =
    if i >= n then finish i
    else if line.[i] = ',' then begin
      push ();
      field (i + 1)
    end
    else begin
      Buffer.add_char buf line.[i];
      plain (i + 1)
    end
  and quoted i =
    if i >= n then invalid_arg "Csv.parse_line: unterminated quote"
    else if line.[i] = '"' then
      if i + 1 < n && line.[i + 1] = '"' then begin
        Buffer.add_char buf '"';
        quoted (i + 2)
      end
      else plain (i + 1)
    else begin
      Buffer.add_char buf line.[i];
      quoted (i + 1)
    end
  and push () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  and finish _ = push ()
  in
  field 0;
  List.rev !fields

let of_string doc =
  let lines =
    String.split_on_char '\n' doc
    |> List.map (fun l ->
           let l = if String.length l > 0 && l.[String.length l - 1] = '\r' then
               String.sub l 0 (String.length l - 1)
             else l
           in
           l)
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> invalid_arg "Csv.of_string: empty document"
  | header :: body ->
      let names = Array.of_list (parse_line header) in
      let schema = Schema.make names in
      let m = Array.length names in
      let parse_row l =
        let cells = parse_line l in
        if List.length cells <> m then invalid_arg "Csv.of_string: ragged row";
        Array.of_list (List.map Value.of_string cells)
      in
      Table.make schema (Array.of_list (List.map parse_row body))

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let doc = really_input_string ic len in
  close_in ic;
  of_string doc

let escape_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_string t =
  let buf = Buffer.create 1024 in
  let add_row cells =
    Buffer.add_string buf (String.concat "," (List.map escape_field cells));
    Buffer.add_char buf '\n'
  in
  add_row (Array.to_list (Schema.names (Table.schema t)));
  for i = 0 to Table.rows t - 1 do
    add_row
      (Array.to_list (Table.row t i) |> List.map Value.to_string)
  done;
  Buffer.contents buf
