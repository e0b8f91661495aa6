external field : 'a array -> int -> unit = "sb_prefetch_field" [@@noalloc]
