//! The row accessors agree with the element accessors.
//!
//! `RecordReader::row`/`RecordView::set_row` (and their scalar forms) move
//! one record's whole field at a time; `get_f64`/`set_u64` & co. move one
//! element. For every layout, every field type the apps store, and every
//! record of a block (first and last included), writing through one family
//! and reading through the other must give the same bits, and a row of the
//! wrong type or length must be rejected as a non-float field is by
//! `get_f64`.

use gflink_memory::{
    AlignClass, DataLayout, FieldDef, GStructDef, HBuffer, PrimType, RecordReader, RecordView,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const COORDS: usize = 16;
const COLS: usize = 8;

/// One field of every shape the apps store: u32/f32/f64 scalars and
/// f32/u32 arrays, with padding between mixed widths.
fn rows_def() -> GStructDef {
    GStructDef::new(
        "Rows",
        AlignClass::Align8,
        vec![
            FieldDef::scalar("id", PrimType::U32),
            FieldDef::array("coords", PrimType::F32, COORDS),
            FieldDef::scalar("w", PrimType::F64),
            FieldDef::array("cols", PrimType::U32, COLS),
            FieldDef::scalar("y", PrimType::F32),
        ],
    )
}

/// One record's field values, derived from `seed`.
#[derive(Clone, Debug, PartialEq)]
struct Rec {
    id: u32,
    coords: [f32; COORDS],
    w: f64,
    cols: [u32; COLS],
    y: f32,
}

fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rec(seed: u64, r: usize) -> Rec {
    let k = (r as u64) << 8;
    // Finite floats of both signs and many magnitudes (no NaN, so the
    // element path's widening round-trips bit for bit).
    let float = |j: u64| (mix(seed, k + j) as i32) as f32 / 7.0;
    Rec {
        id: mix(seed, k) as u32,
        coords: std::array::from_fn(|d| float(1 + d as u64)),
        w: (mix(seed, k + 40) as i64) as f64 / 3.0,
        cols: std::array::from_fn(|c| mix(seed, k + 50 + c as u64) as u32),
        y: float(60),
    }
}

fn store_rows(view: &mut RecordView<'_>, r: usize, v: &Rec) {
    view.set_scalar(r, 0, v.id);
    view.set_row(r, 1, &v.coords);
    view.set_scalar(r, 2, v.w);
    view.set_row(r, 3, &v.cols);
    view.set_scalar(r, 4, v.y);
}

fn store_elements(view: &mut RecordView<'_>, r: usize, v: &Rec) {
    view.set_u64(r, 0, 0, v.id as u64);
    for (d, x) in v.coords.iter().enumerate() {
        view.set_f64(r, 1, d, *x as f64);
    }
    view.set_f64(r, 2, 0, v.w);
    for (c, x) in v.cols.iter().enumerate() {
        view.set_u64(r, 3, c, *x as u64);
    }
    view.set_f64(r, 4, 0, v.y as f64);
}

fn load_rows(reader: &RecordReader<'_>, r: usize) -> Rec {
    Rec {
        id: reader.scalar(r, 0),
        coords: reader.row(r, 1),
        w: reader.scalar(r, 2),
        cols: reader.row(r, 3),
        y: reader.scalar(r, 4),
    }
}

fn load_elements(reader: &RecordReader<'_>, r: usize) -> Rec {
    Rec {
        id: reader.get_u64(r, 0, 0) as u32,
        coords: std::array::from_fn(|d| reader.get_f64(r, 1, d) as f32),
        w: reader.get_f64(r, 2, 0),
        cols: std::array::from_fn(|c| reader.get_u64(r, 3, c) as u32),
        y: reader.get_f64(r, 4, 0) as f32,
    }
}

/// Fill a block of `n` records with `store`, then read every record back
/// with `load` and return the raw bytes alongside.
fn roundtrip(
    layout: DataLayout,
    n: usize,
    seed: u64,
    store: fn(&mut RecordView<'_>, usize, &Rec),
    load: fn(&RecordReader<'_>, usize) -> Rec,
) -> (Vec<u8>, Vec<Rec>) {
    let def = rows_def();
    let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, n));
    let mut view = RecordView::new(&mut buf, &def, layout, n);
    for r in 0..n {
        store(&mut view, r, &rec(seed, r));
    }
    let reader = RecordReader::new(&buf, &def, layout, n);
    let back = (0..n).map(|r| load(&reader, r)).collect();
    (buf.as_slice().to_vec(), back)
}

proptest! {
    /// Rows and elements write the same bytes and read the same values,
    /// in every layout, for every record of the block.
    #[test]
    fn rows_match_elements_in_every_layout(n in 1usize..24, seed in any::<u64>()) {
        let want: Vec<Rec> = (0..n).map(|r| rec(seed, r)).collect();
        for layout in DataLayout::ALL {
            let (row_bytes, rows_via_elements) =
                roundtrip(layout, n, seed, store_rows, load_elements);
            let (elem_bytes, elements_via_rows) =
                roundtrip(layout, n, seed, store_elements, load_rows);
            prop_assert!(row_bytes == elem_bytes, "{:?}: stored bytes differ", layout);
            prop_assert_eq!(&rows_via_elements, &want, "{:?}: row write, element read", layout);
            prop_assert_eq!(&elements_via_rows, &want, "{:?}: element write, row read", layout);
            // The block's edges explicitly: the first record and the last.
            prop_assert_eq!(&elements_via_rows[0], &want[0]);
            prop_assert_eq!(&elements_via_rows[n - 1], &want[n - 1]);
        }
    }
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("accessor must reject");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn mismatched_rows_are_rejected_like_non_float_elements() {
    let def = rows_def();
    for layout in DataLayout::ALL {
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 2));
        let reader = RecordReader::new(&buf, &def, layout, 2);
        // The element accessors' precedent: a float read of a u32 field.
        let element = panic_message(|| {
            reader.get_f64(1, 0, 0);
        });
        assert!(element.contains("field 0 is U32"), "{element}");
        // A row of the wrong element type, in both directions.
        let wrong_type = panic_message(|| {
            reader.row::<u32, COORDS>(1, 1);
        });
        assert!(
            wrong_type.contains("field 1 is F32, not U32"),
            "{wrong_type}"
        );
        let widened = panic_message(|| {
            reader.scalar::<f64>(0, 4);
        });
        assert!(widened.contains("field 4 is F32, not F64"), "{widened}");
        // A row of the wrong length, short and long.
        let short = panic_message(|| {
            reader.row::<f32, { COORDS - 1 }>(0, 1);
        });
        assert!(short.contains("field 1 has 16 elements, not 15"), "{short}");
        let scalar_of_array = panic_message(|| {
            reader.scalar::<u32>(1, 3);
        });
        assert!(scalar_of_array.contains("field 3 has 8 elements, not 1"));
        let mut view = RecordView::new(&mut buf, &def, layout, 2);
        let long = panic_message(|| view.set_row(1, 3, &[0u32; COLS + 1]));
        assert!(long.contains("field 3 has 8 elements, not 9"), "{long}");
        let narrowed = panic_message(|| view.set_scalar(0, 2, 1.0f32));
        assert!(narrowed.contains("field 2 is F64, not F32"), "{narrowed}");
    }
}
