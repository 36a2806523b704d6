let default_accuracy = 0.97

(* Script-plausible confusions. *)
let confusable = function
  | "fa" -> "ar"
  | "ar" -> "fa"
  | "ps" -> "ur"
  | "ur" -> "ar"
  | "ru" -> "uk"
  | "uk" -> "ru"
  | "cs" -> "sk"
  | "sk" -> "cs"
  | "pt" -> "es"
  | "es" -> "pt"
  | "no" -> "da"
  | "da" -> "no"
  | "id" -> "ms"
  | "ms" -> "id"
  | _ -> "en"

(* The polynomial string hash of [domain ^ truth], folded over the two
   strings in turn so no joined string is built. *)
let hash2 a b seed =
  let h = ref seed in
  String.iter (fun c -> h := (!h * 131) + Char.code c) a;
  String.iter (fun c -> h := (!h * 131) + Char.code c) b;
  abs !h mod 1000

let detect ?(accuracy = default_accuracy) ~domain truth =
  if float_of_int (hash2 domain truth 83) /. 1000.0 < accuracy then truth
  else confusable truth
