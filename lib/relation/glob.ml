let is_pattern s = String.exists (fun c -> c = '*' || c = '?') s

let matches ~pattern s = Obs.glob_match pattern s
