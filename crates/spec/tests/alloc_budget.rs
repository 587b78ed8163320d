//! What reading a spec holds: on the generated 3 000-host access network
//! (the `paths-dense` benchmark's size), `parse`'s peak live heap stays
//! within a fixed multiple of the heap of the `SpecFile` it returns. The
//! eager lexer it replaced (`oracle/`) held every token at once, and the
//! same ratio is printed for it.

mod oracle;

use netqos_spec::{generate_spec, parse, GenParams, SpecError, SpecFile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds (allocated less freed) and the most it
    /// held, while `Some`.
    static HEAP: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

fn track(delta: isize) {
    HEAP.with(|h| {
        if let Some((live, peak)) = h.get() {
            h.set(Some((live + delta, peak.max(live + delta))));
        }
    });
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally is a `const`-initialised
// thread-local `Cell` of a `Copy` type, so touching it neither allocates
// nor runs a destructor.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment.
        track(new_size as isize);
        track(-(layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// `parse(src)`'s peak live heap and the live heap of what it returns,
/// in bytes.
fn heap_of(parse: fn(&str) -> Result<SpecFile, SpecError>, src: &str) -> (isize, isize) {
    HEAP.with(|h| h.set(Some((0, 0))));
    let file = parse(src).expect("generated spec parses");
    let (kept, peak) = HEAP.with(|h| h.replace(None)).expect("tracking was on");
    drop(file);
    (peak, kept)
}

#[test]
fn parsing_holds_little_more_than_the_ast() {
    let src = generate_spec(&GenParams {
        hosts: 3_000,
        qos_paths: 512,
        ..GenParams::default()
    });
    let (peak, kept) = heap_of(parse, &src);
    let (oracle_peak, oracle_kept) = heap_of(oracle::parse, &src);
    let ratio = peak as f64 / kept as f64;
    println!(
        "{} KB source: parse peaks at {} KB over a {} KB SpecFile ({ratio:.2}x); \
         the eager lexer at {} KB over {} KB ({:.2}x)",
        src.len() / 1024,
        peak / 1024,
        kept / 1024,
        oracle_peak / 1024,
        oracle_kept / 1024,
        oracle_peak as f64 / oracle_kept as f64,
    );
    assert!(
        ratio < PEAK_OVER_AST,
        "peak {peak} B is {ratio:.2}x the SpecFile's {kept} B, budget {PEAK_OVER_AST}x"
    );
}

/// The parse's peak over the AST's own heap. What lies above 1 is the
/// AST's vectors doubling (old and new buffer live together); there is
/// no token buffer. Measured: 1.06 (2 131 KB over 2 017 KB); the eager
/// lexer's 3.97 (7 955 KB over 2 001 KB, its addresses joined to the
/// byte).
const PEAK_OVER_AST: f64 = 1.2;
