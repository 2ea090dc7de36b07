(* Minimal blocking client for the simulation service — used by the CLI
   [splice client] subcommand, the test suite and the CI smoke run. *)

open Splice_obs

module P = Protocol

type conn = { fd : Unix.file_descr; r : P.reader }

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; r = P.reader fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send_line c line = P.write_all c.fd (line ^ "\n")

let recv_line ?(max = 1 lsl 24) c =
  match P.read_line c.r ~max_line:max with
  | `Line line -> Ok line
  | `Eof -> Error "connection closed by server"
  | `Oversized -> Error "reply line too long"

let request_line c line =
  send_line c line;
  match recv_line c with
  | Error e -> Error e
  | Ok reply -> Json.of_string reply

let request c j = request_line c (Json.to_string j)

let recv_all fd =
  let buf = Bytes.create 4096 in
  let b = Buffer.create 4096 in
  let rec go () =
    let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
    if n > 0 then (
      Buffer.add_subbytes b buf 0 n;
      go ())
  in
  go ();
  Buffer.contents b

let http_get ?(host = "127.0.0.1") ~port path =
  match connect ~host ~port () with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          P.write_all c.fd
            (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
               path host);
          let raw = recv_all c.fd in
          match String.index_opt raw ' ' with
          | None -> Error "malformed HTTP response"
          | Some sp -> (
              let status =
                match
                  int_of_string_opt
                    (String.sub raw (sp + 1) (min 3 (String.length raw - sp - 1)))
                with
                | Some s -> s
                | None -> 0
              in
              (* body starts after the blank line *)
              let rec find_body i =
                if i + 3 >= String.length raw then None
                else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
                else find_body (i + 1)
              in
              match find_body 0 with
              | None -> Error "malformed HTTP response (no body)"
              | Some b ->
                  Ok (status, String.sub raw b (String.length raw - b))))
