(** Shared framing and command codec for FireAxe's inter-process
    protocols — the plumbing that was duplicated between the
    {!Remote_engine} worker pipe and the simulation-service socket.

    Two framings over one buffered, select(2)-guarded reader:

    - {e line} frames (the worker protocol): one request or reply per
      newline-terminated line;
    - {e length-prefixed} frames (the service protocol,
      [fireaxe-service-1]): a 4-byte big-endian payload length followed
      by the payload bytes, so replies may carry arbitrary text —
      circuit sources, state blobs, report tables — without escaping.

    Every read honors an optional timeout, surfacing a wedged peer as
    {!Timeout} instead of hanging the caller; a vanished peer (EOF or a
    broken pipe) is {!Closed}.  Callers translate those into their own
    diagnoses ([Remote_engine] raises [Worker_died]; the service drops
    the connection). *)

(** The peer is gone: EOF on the descriptor or a write into a broken
    pipe.  The payload names the endpoint when the caller set one. *)
exception Closed of string

(** No reply byte arrived within the allotted seconds. *)
exception Timeout of float

(** A buffered reader over one file descriptor.  Reads pull whatever
    the kernel has into an internal buffer; frame extraction consumes
    from it, so pipelined frames cost no extra syscalls. *)
type reader

(** [reader fd] wraps [fd].  [label] names the peer in {!Closed}
    diagnostics; [scratch] sizes the read(2) staging buffer. *)
val reader : ?label:string -> ?scratch:int -> Unix.file_descr -> reader

val fd : reader -> Unix.file_descr
val label : reader -> string

(** Discards any buffered bytes (used when the peer behind the
    descriptor is replaced, e.g. a worker respawn). *)
val reset : reader -> unit

(** Reads one newline-terminated line (without the newline).  Blocks up
    to [timeout] seconds (forever when omitted). *)
val read_line : ?timeout:float -> reader -> string

(** Reads one length-prefixed frame's payload.  Blocks up to [timeout]
    seconds for EACH refill (forever when omitted). *)
val read_frame : ?timeout:float -> reader -> string

(** Non-blocking frame extraction for event loops: consumes a complete
    frame from the buffer if one is present, otherwise attempts ONE
    non-blocking refill and tries again.  [None] means no complete
    frame yet; {!Closed} means the peer is gone.  Call in a loop after
    select(2) reports the descriptor readable — several frames may
    arrive in one read. *)
val try_read_frame : reader -> string option

(** Encodes [payload] as one length-prefixed frame. *)
val frame : string -> string

(** Writes one length-prefixed frame; raises {!Closed} on a broken
    descriptor.  Writes the whole frame before returning. *)
val write_frame : ?label:string -> Unix.file_descr -> string -> unit

(** Frames larger than this (64 MiB) are rejected on both sides — a
    corrupt length prefix must not look like an instruction to allocate
    gigabytes. *)
val max_frame : int

(** {1 Tagged frames}

    [fireaxe-service-2] multiplexes server-initiated pushes with the
    one-outstanding-request reply discipline by prefixing every frame
    payload with a one-byte tag: {!tag_reply} for the reply the client
    is waiting on, {!tag_push} for an unsolicited [watch]/[event]
    frame.  Untagged framing (the worker pipes, [fireaxe-service-1]
    peers) is untouched — a tag is just the payload's first byte. *)

val tag_reply : char
val tag_push : char

(** Splits a tagged payload into (tag, rest); [Invalid_argument] on an
    empty frame. *)
val untag_frame : string -> char * string

(** {!write_frame} of the payload prefixed with the [tag] byte. *)
val write_tagged : ?label:string -> Unix.file_descr -> tag:char -> string -> unit

(** {1 Command codec}

    Requests and replies are lines of space-separated words; bulk data
    rides behind the first newline of a frame payload. *)

(** Splits on single spaces, dropping empty words. *)
val words : string -> string list

(** [int_word ~context w] parses [w] as an integer; [Failure] naming
    [context] otherwise. *)
val int_word : context:string -> string -> int

(** Splits a frame payload into its command line and the (possibly
    empty) blob behind the first newline. *)
val split_payload : string -> string * string

(** [join_payload line blob]: the inverse of {!split_payload} ([line]
    must be newline-free). *)
val join_payload : string -> string -> string
