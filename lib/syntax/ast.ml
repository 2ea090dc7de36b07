type count = Fixed of int | Var of string

type extensions = {
  pointer : bool;
  packed : bool;
  dma : bool;
  by_ref : bool;
  count : count option;
}

let no_extensions =
  { pointer = false; packed = false; dma = false; by_ref = false; count = None }

type param = {
  p_loc : Loc.t;
  p_type : string list;
  p_ext : extensions;
  p_name : string;
}

type ret = Ret_void | Ret_nowait | Ret_value of string list * extensions

type decl = {
  d_loc : Loc.t;
  d_ret : ret;
  d_name : string;
  d_params : param list;
  d_instances : int;
}

type hdl_lang = Vhdl | Verilog

type directive =
  | Bus_type of string
  | Bus_width of int
  | Base_address of int64
  | Burst_support of bool
  | Dma_support of bool
  | Packing_support of bool
  | Interrupt_support of bool
  | Device_name of string
  | Target_hdl of hdl_lang
  | User_type of { ut_name : string; ut_def : string list; ut_width : int }
  | User_struct of { us_name : string; us_fields : (string list * string) list }

type item = Directive of Loc.t * directive | Decl of decl
type file = item list

let hdl_lang_to_string = function Vhdl -> "vhdl" | Verilog -> "verilog"

let pp_count fmt = function
  | Fixed n -> Format.fprintf fmt ":%d" n
  | Var v -> Format.fprintf fmt ":%s" v

let pp_extensions fmt e =
  if e.pointer then Format.pp_print_char fmt '*';
  (match e.count with Some c -> pp_count fmt c | None -> ());
  if e.packed then Format.pp_print_char fmt '+';
  if e.dma then Format.pp_print_char fmt '^';
  if e.by_ref then Format.pp_print_char fmt '&'

let pp_type_words fmt ws =
  Format.pp_print_string fmt (String.concat " " ws)

let pp_param fmt p =
  Format.fprintf fmt "%a%a %s" pp_type_words p.p_type pp_extensions p.p_ext
    p.p_name

let pp_ret fmt = function
  | Ret_void -> Format.pp_print_string fmt "void"
  | Ret_nowait -> Format.pp_print_string fmt "nowait"
  | Ret_value (ws, e) -> Format.fprintf fmt "%a%a" pp_type_words ws pp_extensions e

let pp_decl fmt d =
  Format.fprintf fmt "%a %s(%a)" pp_ret d.d_ret d.d_name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_param)
    d.d_params;
  if d.d_instances > 1 then Format.fprintf fmt ":%d" d.d_instances;
  Format.pp_print_char fmt ';'

let pp_bool fmt b = Format.pp_print_string fmt (if b then "true" else "false")

let pp_directive fmt = function
  | Bus_type s -> Format.fprintf fmt "%%bus_type %s" s
  | Bus_width n -> Format.fprintf fmt "%%bus_width %d" n
  | Base_address a -> Format.fprintf fmt "%%base_address 0x%Lx" a
  | Burst_support b -> Format.fprintf fmt "%%burst_support %a" pp_bool b
  | Dma_support b -> Format.fprintf fmt "%%dma_support %a" pp_bool b
  | Packing_support b -> Format.fprintf fmt "%%packing_support %a" pp_bool b
  | Interrupt_support b -> Format.fprintf fmt "%%interrupt_support %a" pp_bool b
  | Device_name s -> Format.fprintf fmt "%%device_name %s" s
  | Target_hdl h -> Format.fprintf fmt "%%target_hdl %s" (hdl_lang_to_string h)
  | User_type { ut_name; ut_def; ut_width } ->
      Format.fprintf fmt "%%user_type %s, %s, %d" ut_name
        (String.concat " " ut_def) ut_width
  | User_struct { us_name; us_fields } ->
      Format.fprintf fmt "%%user_struct %s { %s }" us_name
        (String.concat " "
           (List.map
              (fun (ty, f) -> Printf.sprintf "%s %s;" (String.concat " " ty) f)
              us_fields))

let pp_item fmt = function
  | Directive (_, d) -> pp_directive fmt d
  | Decl d -> pp_decl fmt d

let pp_file fmt file =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_char fmt '\n')
    pp_item fmt file;
  Format.pp_print_char fmt '\n'
