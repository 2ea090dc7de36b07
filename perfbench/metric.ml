type t = { name : string; value : float; unit_ : string }

let v name unit_ value = { name; value; unit_ }

let at_reference_speed ~slowdown ms =
  List.map
    (fun m ->
      if List.mem m.unit_ [ "ns"; "us"; "ms"; "s" ] then { m with value = m.value /. slowdown }
      else m)
    ms

let to_json ms =
  Splice.Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Splice.Json.Obj
             [ ("value", Splice.Json.Float m.value); ("unit", Splice.Json.String m.unit_) ] ))
       ms)

let find ms name = List.find_opt (fun m -> m.name = name) ms
