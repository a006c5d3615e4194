//! Data layouts: AoS, SoA, AoP.
//!
//! §2.1 of the paper recalls the three classic GPU data layouts —
//! Array-of-Structures, Structure-of-Arrays, Array-of-Primitives — and §3.2
//! explains how GStruct declarations select between them: plain structs give
//! AoS, array members give SoA sub-regions, and separating the arrays gives
//! AoP. The choice determines whether a warp's global-memory accesses
//! coalesce, which the virtual GPU models through
//! [`DataLayout::coalescing_efficiency`].
//!
//! [`RecordView`] interprets an [`HBuffer`] as `n` records of a
//! [`GStructDef`] under a chosen layout, with field accessors and
//! layout-conversion routines.
//!
//! Two families of accessors exist. The element accessors (`get_f64`,
//! `set_u64`, …) convert through a wide type and resolve the field's type
//! on every call; they suit generic code that does not know the schema.
//! The row accessors ([`RecordReader::row`], [`RecordView::set_row`] and
//! their scalar forms) move one record's whole field as a typed array:
//! the element type and length are checked once per row, the offset is
//! computed once, and the bytes are decoded with one slice bound check.
//! One record's field is contiguous under AoS, SoA and AoP alike, so one
//! implementation serves every layout. Kernels and record codecs use the
//! row accessors (DESIGN.md §4.3).

use crate::gstruct::{GStructDef, PrimType};
use crate::hbuffer::HBuffer;
use std::ops::Range;

mod sealed {
    pub trait Sealed {}
}

/// A Rust primitive that a field row is read or written as. The type must
/// match the field's [`PrimType`] exactly: rows neither widen nor narrow.
pub trait RowElem: Copy + Default + sealed::Sealed {
    /// The field type this element encodes.
    const PRIM: PrimType;
    /// Decode one little-endian element (`bytes.len() == PRIM.size()`).
    fn from_le(bytes: &[u8]) -> Self;
    /// Encode one little-endian element into `out` (`PRIM.size()` bytes).
    fn write_le(self, out: &mut [u8]);
}

macro_rules! row_elem {
    ($($t:ty => $prim:ident),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl RowElem for $t {
            const PRIM: PrimType = PrimType::$prim;
            #[inline]
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("row chunk width"))
            }
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

row_elem!(u32 => U32, f32 => F32, f64 => F64);

/// The three data layouts of §2.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataLayout {
    /// Array of Structures: records stored contiguously, fields interleaved.
    Aos,
    /// Structure of Arrays: one contiguous array per field ("columnar").
    Soa,
    /// Array of Primitives: like SoA, but each field array is an independent
    /// buffer (no common struct header); transfer granularity is per-field.
    Aop,
}

impl DataLayout {
    /// All layouts, for sweeps.
    pub const ALL: [DataLayout; 3] = [DataLayout::Aos, DataLayout::Soa, DataLayout::Aop];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DataLayout::Aos => "AoS",
            DataLayout::Soa => "SoA",
            DataLayout::Aop => "AoP",
        }
    }

    /// Fraction of fetched bytes that are useful when a warp accesses field
    /// `field` of consecutive records (1.0 = perfectly coalesced).
    ///
    /// SoA/AoP place consecutive records' fields at consecutive addresses, so
    /// accesses coalesce fully. Under AoS a warp's lanes touch addresses
    /// `stride` apart; the memory system still fetches whole segments, so the
    /// useful fraction is `field_bytes / stride` (floored so the model never
    /// predicts worse than 32× waste, matching DRAM burst granularity).
    pub fn coalescing_efficiency(self, def: &GStructDef, field: usize) -> f64 {
        match self {
            DataLayout::Soa | DataLayout::Aop => 1.0,
            DataLayout::Aos => {
                let f = &def.fields()[field];
                let eff = f.byte_size() as f64 / def.size() as f64;
                eff.clamp(1.0 / 32.0, 1.0)
            }
        }
    }

    /// Coalescing efficiency for a kernel that reads *every* field of each
    /// record (e.g. the paper's `addPoint`): AoS then wastes only padding.
    pub fn coalescing_all_fields(self, def: &GStructDef) -> f64 {
        match self {
            DataLayout::Soa | DataLayout::Aop => 1.0,
            DataLayout::Aos => (def.payload_size() as f64 / def.size() as f64).max(1.0 / 32.0),
        }
    }
}

/// A typed view of `n` records of schema `def` under `layout`, stored in a
/// caller-provided byte buffer.
pub struct RecordView<'a> {
    buf: &'a mut HBuffer,
    shape: Shape<'a>,
}

impl<'a> RecordView<'a> {
    /// Bytes required to store `n` records of `def` under `layout`.
    ///
    /// SoA/AoP field arrays are padded to 8-byte boundaries between fields so
    /// every array is well aligned for its element type.
    pub fn required_bytes(def: &GStructDef, layout: DataLayout, n: usize) -> usize {
        match layout {
            DataLayout::Aos => def.size() * n,
            DataLayout::Soa | DataLayout::Aop => {
                let mut off = 0usize;
                for f in def.fields() {
                    off = round_up(off, 8);
                    off += f.byte_size() * n;
                }
                off
            }
        }
    }

    /// Create a view over `buf`. Panics if the buffer is too small.
    pub fn new(buf: &'a mut HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        let shape = Shape::new(buf, def, layout, n);
        RecordView { buf, shape }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.shape.n
    }

    /// True if the view holds no records.
    pub fn is_empty(&self) -> bool {
        self.shape.n == 0
    }

    /// The schema this view interprets.
    pub fn def(&self) -> &GStructDef {
        self.shape.def
    }

    /// The layout this view uses.
    pub fn layout(&self) -> DataLayout {
        self.shape.layout
    }

    /// Byte offset of `(record, field, elem)` under this view's layout.
    pub fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        debug_assert!(
            record < self.shape.n,
            "record {record} out of {}",
            self.shape.n
        );
        self.shape.element_offset(record, field, elem)
    }

    /// Read `(record, field, elem)` as `f64` (numeric widening for F32).
    pub fn get_f64(&self, record: usize, field: usize, elem: usize) -> f64 {
        let off = self.element_offset(record, field, elem);
        match self.shape.def.fields()[field].prim {
            PrimType::F32 => self.buf.read_f32(off) as f64,
            PrimType::F64 => self.buf.read_f64(off),
            other => panic!("field {field} is {other:?}, not a float"),
        }
    }

    /// Write `(record, field, elem)` as `f64` (narrowing for F32).
    pub fn set_f64(&mut self, record: usize, field: usize, elem: usize, v: f64) {
        let off = self.element_offset(record, field, elem);
        match self.shape.def.fields()[field].prim {
            PrimType::F32 => self.buf.write_f32(off, v as f32),
            PrimType::F64 => self.buf.write_f64(off, v),
            other => panic!("field {field} is {other:?}, not a float"),
        }
    }

    /// Read `(record, field, elem)` as `u64` (zero-extended).
    pub fn get_u64(&self, record: usize, field: usize, elem: usize) -> u64 {
        let off = self.element_offset(record, field, elem);
        match self.shape.def.fields()[field].prim {
            PrimType::U8 => self.buf.read_u8(off) as u64,
            PrimType::I32 => self.buf.read_i32(off) as u32 as u64,
            PrimType::U32 => self.buf.read_u32(off) as u64,
            PrimType::I64 => self.buf.read_i64(off) as u64,
            PrimType::U64 => self.buf.read_u64(off),
            other => panic!("field {field} is {other:?}, not an integer"),
        }
    }

    /// Write `(record, field, elem)` as `u64` (truncating).
    pub fn set_u64(&mut self, record: usize, field: usize, elem: usize, v: u64) {
        let off = self.element_offset(record, field, elem);
        match self.shape.def.fields()[field].prim {
            PrimType::U8 => self.buf.write_u8(off, v as u8),
            PrimType::I32 => self.buf.write_i32(off, v as i32),
            PrimType::U32 => self.buf.write_u32(off, v as u32),
            PrimType::I64 => self.buf.write_i64(off, v as i64),
            PrimType::U64 => self.buf.write_u64(off, v),
            other => panic!("field {field} is {other:?}, not an integer"),
        }
    }

    /// Write record `record`'s whole field `field` from `vals`.
    ///
    /// Panics if the field is not of `T`'s type or does not hold exactly
    /// `vals.len()` elements.
    #[inline]
    pub fn set_row<T: RowElem>(&mut self, record: usize, field: usize, vals: &[T]) {
        let range = self.shape.row_range(record, field, T::PRIM, vals.len());
        let bytes = &mut self.buf.as_mut_slice()[range];
        for (out, v) in bytes.chunks_exact_mut(T::PRIM.size()).zip(vals) {
            v.write_le(out);
        }
    }

    /// Write the scalar field `field` of record `record`.
    #[inline]
    pub fn set_scalar<T: RowElem>(&mut self, record: usize, field: usize, v: T) {
        self.set_row(record, field, &[v]);
    }

    /// Copy all records into `dst`, which may use a different layout.
    ///
    /// This is the manual transformation GFlink's zero-copy scheme avoids on
    /// the hot path; it exists for layout experiments and the conversion
    /// ablation.
    pub fn convert_into(&self, dst: &mut RecordView<'_>) {
        let def = self.shape.def;
        assert!(
            std::ptr::eq(def, dst.shape.def) || def == dst.shape.def,
            "schema mismatch"
        );
        assert_eq!(self.shape.n, dst.shape.n, "record count mismatch");
        for r in 0..self.shape.n {
            for (fi, f) in def.fields().iter().enumerate() {
                let sz = f.prim.size();
                for e in 0..f.array_len {
                    let so = self.element_offset(r, fi, e);
                    let doff = dst.element_offset(r, fi, e);
                    // Raw byte copy preserves exact bit patterns for every
                    // primitive type.
                    for b in 0..sz {
                        let byte = self.buf.as_slice()[so + b];
                        dst.buf.as_mut_slice()[doff + b] = byte;
                    }
                }
            }
        }
    }
}

/// Read-only counterpart of [`RecordView`]: interprets an immutable buffer.
///
/// Kernels receive their input buffers as `&HBuffer`; `RecordReader` gives
/// them typed, layout-aware access without requiring mutability.
pub struct RecordReader<'a> {
    buf: &'a HBuffer,
    shape: Shape<'a>,
}

impl<'a> RecordReader<'a> {
    /// Create a reader over `buf`. Panics if the buffer is too small.
    pub fn new(buf: &'a HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        let shape = Shape::new(buf, def, layout, n);
        RecordReader { buf, shape }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.shape.n
    }

    /// True if the reader holds no records.
    pub fn is_empty(&self) -> bool {
        self.shape.n == 0
    }

    /// Byte offset of `(record, field, elem)` under this reader's layout.
    pub fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        self.shape.element_offset(record, field, elem)
    }

    /// Read `(record, field, elem)` as `f64` (numeric widening for F32).
    pub fn get_f64(&self, record: usize, field: usize, elem: usize) -> f64 {
        let off = self.element_offset(record, field, elem);
        match self.shape.def.fields()[field].prim {
            PrimType::F32 => self.buf.read_f32(off) as f64,
            PrimType::F64 => self.buf.read_f64(off),
            other => panic!("field {field} is {other:?}, not a float"),
        }
    }

    /// Read `(record, field, elem)` as `u64` (zero-extended).
    pub fn get_u64(&self, record: usize, field: usize, elem: usize) -> u64 {
        let off = self.element_offset(record, field, elem);
        match self.shape.def.fields()[field].prim {
            PrimType::U8 => self.buf.read_u8(off) as u64,
            PrimType::I32 => self.buf.read_i32(off) as u32 as u64,
            PrimType::U32 => self.buf.read_u32(off) as u64,
            PrimType::I64 => self.buf.read_i64(off) as u64,
            PrimType::U64 => self.buf.read_u64(off),
            other => panic!("field {field} is {other:?}, not an integer"),
        }
    }
}

impl RecordReader<'_> {
    /// Read record `record`'s whole field `field` as `N` elements of `T`.
    ///
    /// Panics if the field is not of `T`'s type or does not hold exactly
    /// `N` elements.
    #[inline]
    pub fn row<T: RowElem, const N: usize>(&self, record: usize, field: usize) -> [T; N] {
        let range = self.shape.row_range(record, field, T::PRIM, N);
        let bytes = &self.buf.as_slice()[range];
        let mut out = [T::default(); N];
        for (o, b) in out.iter_mut().zip(bytes.chunks_exact(T::PRIM.size())) {
            *o = T::from_le(b);
        }
        out
    }

    /// Read the scalar field `field` of record `record`.
    #[inline]
    pub fn scalar<T: RowElem>(&self, record: usize, field: usize) -> T {
        let [v] = self.row::<T, 1>(record, field);
        v
    }
}

/// Where `n` records of `def` sit under `layout`: what both
/// [`RecordView`] and [`RecordReader`] resolve offsets with.
struct Shape<'a> {
    def: &'a GStructDef,
    layout: DataLayout,
    n: usize,
    /// Per-field base offsets (SoA/AoP); empty for AoS.
    field_bases: Vec<usize>,
}

impl<'a> Shape<'a> {
    /// The shape of `n` records in `buf`. Panics if the buffer is too small.
    fn new(buf: &HBuffer, def: &'a GStructDef, layout: DataLayout, n: usize) -> Self {
        let need = RecordView::required_bytes(def, layout, n);
        assert!(
            buf.len() >= need,
            "buffer too small: {} < {need} for {n} records of {}",
            buf.len(),
            def.name()
        );
        let field_bases = match layout {
            DataLayout::Aos => Vec::new(),
            DataLayout::Soa | DataLayout::Aop => {
                let mut bases = Vec::with_capacity(def.num_fields());
                let mut off = 0usize;
                for f in def.fields() {
                    off = round_up(off, 8);
                    bases.push(off);
                    off += f.byte_size() * n;
                }
                bases
            }
        };
        Shape {
            def,
            layout,
            n,
            field_bases,
        }
    }

    fn element_offset(&self, record: usize, field: usize, elem: usize) -> usize {
        let f = &self.def.fields()[field];
        debug_assert!(elem < f.array_len);
        match self.layout {
            DataLayout::Aos => {
                record * self.def.size() + self.def.offset(field) + elem * f.prim.size()
            }
            DataLayout::Soa | DataLayout::Aop => {
                self.field_bases[field] + (record * f.array_len + elem) * f.prim.size()
            }
        }
    }

    /// Byte range of record `record`'s whole field `field`, after checking
    /// that the field holds exactly `len` elements of type `prim`.
    #[inline]
    fn row_range(&self, record: usize, field: usize, prim: PrimType, len: usize) -> Range<usize> {
        let f = &self.def.fields()[field];
        if f.prim != prim || f.array_len != len {
            row_mismatch(field, f.prim, prim, f.array_len, len);
        }
        debug_assert!(record < self.n, "record {record} out of {}", self.n);
        let start = self.element_offset(record, field, 0);
        start..start + len * prim.size()
    }
}

#[cold]
#[inline(never)]
fn row_mismatch(
    field: usize,
    have: PrimType,
    want: PrimType,
    have_len: usize,
    want_len: usize,
) -> ! {
    if have != want {
        panic!("field {field} is {have:?}, not {want:?}");
    }
    panic!("field {field} has {have_len} elements, not {want_len}");
}

#[inline]
fn round_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gstruct::{AlignClass, FieldDef, GStructDef};

    fn point_def() -> GStructDef {
        GStructDef::new(
            "Point",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("x", PrimType::U32),
                FieldDef::scalar("y", PrimType::F64),
                FieldDef::scalar("z", PrimType::F32),
            ],
        )
    }

    #[test]
    fn required_bytes_per_layout() {
        let def = point_def(); // stride 24, fields 4+8+4
        assert_eq!(RecordView::required_bytes(&def, DataLayout::Aos, 10), 240);
        // SoA: x array 40 -> pad to 40 (already 8-mult), y 80, z 40; bases 0,40,120
        assert_eq!(RecordView::required_bytes(&def, DataLayout::Soa, 10), 160);
        assert_eq!(
            RecordView::required_bytes(&def, DataLayout::Aop, 10),
            RecordView::required_bytes(&def, DataLayout::Soa, 10)
        );
    }

    #[test]
    fn aos_offsets_match_struct_math() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, 4));
        let v = RecordView::new(&mut buf, &def, DataLayout::Aos, 4);
        assert_eq!(v.element_offset(0, 0, 0), 0);
        assert_eq!(v.element_offset(0, 1, 0), 8);
        assert_eq!(v.element_offset(2, 2, 0), 2 * 24 + 16);
    }

    #[test]
    fn soa_offsets_are_columnar() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, 4));
        let v = RecordView::new(&mut buf, &def, DataLayout::Soa, 4);
        // x column at base 0, stride 4.
        assert_eq!(v.element_offset(3, 0, 0), 12);
        // y column starts after 16 bytes of x (4*4), stride 8.
        assert_eq!(v.element_offset(0, 1, 0), 16);
        assert_eq!(v.element_offset(1, 1, 0), 24);
        // z column after y (16 + 32 = 48).
        assert_eq!(v.element_offset(0, 2, 0), 48);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let def = point_def();
        for layout in DataLayout::ALL {
            let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, layout, 8));
            let mut v = RecordView::new(&mut buf, &def, layout, 8);
            for r in 0..8 {
                v.set_u64(r, 0, 0, r as u64 * 10);
                v.set_f64(r, 1, 0, r as f64 + 0.5);
                v.set_f64(r, 2, 0, -(r as f64));
            }
            for r in 0..8 {
                assert_eq!(v.get_u64(r, 0, 0), r as u64 * 10, "{layout:?}");
                assert_eq!(v.get_f64(r, 1, 0), r as f64 + 0.5);
                assert_eq!(v.get_f64(r, 2, 0), -(r as f64));
            }
        }
    }

    #[test]
    fn layout_conversion_roundtrip() {
        let def = point_def();
        let n = 16;
        let mut src_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
        let mut src = RecordView::new(&mut src_buf, &def, DataLayout::Aos, n);
        for r in 0..n {
            src.set_u64(r, 0, 0, (r * 7) as u64);
            src.set_f64(r, 1, 0, r as f64 * 1.25);
            src.set_f64(r, 2, 0, r as f64 - 3.0);
        }
        let mut soa_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Soa, n));
        let mut soa = RecordView::new(&mut soa_buf, &def, DataLayout::Soa, n);
        src.convert_into(&mut soa);
        let mut back_buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, n));
        let mut back = RecordView::new(&mut back_buf, &def, DataLayout::Aos, n);
        soa.convert_into(&mut back);
        assert_eq!(src_buf, back_buf);
    }

    #[test]
    fn coalescing_model_matches_section_2_1() {
        let def = point_def(); // stride 24, payload 16
        assert_eq!(DataLayout::Soa.coalescing_efficiency(&def, 1), 1.0);
        assert_eq!(DataLayout::Aop.coalescing_efficiency(&def, 1), 1.0);
        // AoS reading just the f64 field: 8/24.
        let eff = DataLayout::Aos.coalescing_efficiency(&def, 1);
        assert!((eff - 8.0 / 24.0).abs() < 1e-12);
        // AoS touching all fields: payload/stride.
        let all = DataLayout::Aos.coalescing_all_fields(&def);
        assert!((all - 16.0 / 24.0).abs() < 1e-12);
        // SoA is never worse than AoS.
        assert!(DataLayout::Soa.coalescing_all_fields(&def) >= all);
    }

    #[test]
    fn coalescing_floor_at_burst_granularity() {
        // One tiny field in a huge struct: efficiency floors at 1/32.
        let def = GStructDef::new(
            "Wide",
            AlignClass::Align8,
            vec![
                FieldDef::scalar("tag", PrimType::U8),
                FieldDef::array("pad", PrimType::F64, 64),
            ],
        );
        let eff = DataLayout::Aos.coalescing_efficiency(&def, 0);
        assert_eq!(eff, 1.0 / 32.0);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn undersized_buffer_rejected() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(10);
        let _ = RecordView::new(&mut buf, &def, DataLayout::Aos, 4);
    }

    #[test]
    #[should_panic(expected = "not a float")]
    fn type_confusion_rejected() {
        let def = point_def();
        let mut buf = HBuffer::zeroed(RecordView::required_bytes(&def, DataLayout::Aos, 1));
        let v = RecordView::new(&mut buf, &def, DataLayout::Aos, 1);
        let _ = v.get_f64(0, 0, 0); // field 0 is U32
    }
}
