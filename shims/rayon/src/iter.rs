//! Parallel iterators over splittable producers.
//!
//! The model is a simplified rayon: a [`Producer`] is a splittable
//! description of a data source (an index range, a slice, an adaptor over
//! another producer). Consuming methods split the producer into chunks
//! whose boundaries depend **only on the input length and the
//! `with_min_len`/`with_max_len` hints — never on the pool size** — fold
//! each chunk sequentially (on the current pool's workers), and combine
//! the per-chunk results in chunk order. This makes every reduction,
//! including floating-point sums, bitwise reproducible across pool sizes,
//! while per-element effects (`for_each`) run genuinely concurrently.
//!
//! Inputs no larger than one chunk run inline on the calling thread, so
//! small problems pay no dispatch overhead.

use crate::pool;

/// Elements per chunk before the hints are applied. Small enough to load
/// balance skewed work (e.g. Karp–Sipser chain walks), large enough that
/// per-job overhead (one allocation + one queue operation) is noise.
const DEFAULT_CHUNK: usize = 1024;

/// Upper bound on the number of chunks a single parallel call produces
/// (long inputs get proportionally longer chunks).
const MAX_CHUNKS: usize = 256;

/// A splittable, sendable description of a sequence — the engine behind
/// [`ParIter`]. `len_hint` is the chunking domain size (exact for indexed
/// sources, an upper bound downstream of `filter`/`flat_map`).
pub trait Producer: Sized + Send {
    /// Element type produced.
    type Item: Send;
    /// Sequential iterator a (sub-)producer decays into.
    type IntoSeq: Iterator<Item = Self::Item>;

    /// Size of the chunking domain (exact unless a length-changing adaptor
    /// such as `filter` sits in the pipeline, where it bounds from above).
    fn len_hint(&self) -> usize;

    /// Split into the first `mid` elements (of the chunking domain) and
    /// the rest. `mid` is at most `len_hint()`.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Decay into a sequential iterator over this producer's elements.
    fn into_seq(self) -> Self::IntoSeq;

    /// Whether `len_hint` is the exact element count (true for ranges,
    /// slices, and length-preserving adaptors; false downstream of
    /// `filter`/`filter_map`/`flat_map`). Index-sensitive adaptors
    /// (`enumerate`, `zip`) require an exact base — real rayon encodes
    /// this in the type system (`IndexedParallelIterator`), the shim
    /// enforces it at construction time instead.
    fn is_exact(&self) -> bool {
        true
    }
}

/// A parallel iterator: a [`Producer`] plus chunk-size hints.
pub struct ParIter<P> {
    producer: P,
    min_len: usize,
    max_len: usize,
}

fn chunk_len(len: usize, min_len: usize, max_len: usize) -> usize {
    // `max_len` is a partitioning hint, honoured only down to the
    // `len / MAX_CHUNKS` floor: the bound on the number of chunks (and
    // with it the job-queue pressure of one parallel call) always wins.
    let floor = len.div_ceil(MAX_CHUNKS).max(1);
    let mut chunk = DEFAULT_CHUNK.max(min_len).max(floor);
    if max_len > 0 {
        chunk = chunk.min(max_len).max(floor);
    }
    chunk
}

/// Execute `fold` over every chunk of `par`, returning the per-chunk
/// results in deterministic chunk order.
fn drive<P, R, F>(par: ParIter<P>, fold: F) -> Vec<R>
where
    P: Producer,
    R: Send,
    F: Fn(P::IntoSeq) -> R + Sync,
{
    let ParIter { producer, min_len, max_len } = par;
    let len = producer.len_hint();
    let chunk = chunk_len(len, min_len, max_len);
    if len <= chunk {
        return vec![fold(producer.into_seq())];
    }
    let nchunks = len.div_ceil(chunk);
    let mut pieces = Vec::with_capacity(nchunks);
    let mut rest = producer;
    for _ in 0..nchunks - 1 {
        let (head, tail) = rest.split_at(chunk);
        pieces.push(head);
        rest = tail;
    }
    pieces.push(rest);
    match pool::dispatch_pool() {
        // No multi-thread pool to dispatch to: same chunks, run in order
        // on the caller (bitwise identical to the parallel execution).
        None => pieces.into_iter().map(|p| fold(p.into_seq())).collect(),
        Some(core) => {
            let mut slots: Vec<Option<R>> = Vec::new();
            slots.resize_with(nchunks, || None);
            let fold = &fold;
            core.scope(|s| {
                for (piece, slot) in pieces.into_iter().zip(slots.iter_mut()) {
                    s.spawn(move |_| {
                        *slot = Some(fold(piece.into_seq()));
                    });
                }
            });
            slots.into_iter().map(|r| r.expect("scope joined; every chunk ran")).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Mirror of `rayon::iter::IntoParallelIterator`, implemented for integer
/// ranges, vectors, slices, and [`ParIter`] itself.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Producer backing the parallel iterator.
    type Prod: Producer<Item = Self::Item>;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Prod>;
}

impl<P: Producer> IntoParallelIterator for ParIter<P> {
    type Item = P::Item;
    type Prod = P;
    fn into_par_iter(self) -> ParIter<P> {
        self
    }
}

/// Mirror of `rayon::iter::IntoParallelRefIterator` (`.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    /// Element type (a reference).
    type Item: Send + 'data;
    /// Producer backing the parallel iterator.
    type Prod: Producer<Item = Self::Item>;
    /// Iterate the collection by reference.
    fn par_iter(&'data self) -> ParIter<Self::Prod>;
}

impl<'data, T: ?Sized + 'data> IntoParallelRefIterator<'data> for T
where
    &'data T: IntoParallelIterator,
{
    type Item = <&'data T as IntoParallelIterator>::Item;
    type Prod = <&'data T as IntoParallelIterator>::Prod;
    fn par_iter(&'data self) -> ParIter<Self::Prod> {
        self.into_par_iter()
    }
}

/// Mirror of `rayon::iter::IntoParallelRefMutIterator` (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'data> {
    /// Element type (a mutable reference).
    type Item: Send + 'data;
    /// Producer backing the parallel iterator.
    type Prod: Producer<Item = Self::Item>;
    /// Iterate the collection by mutable reference.
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Prod>;
}

impl<'data, T: ?Sized + 'data> IntoParallelRefMutIterator<'data> for T
where
    &'data mut T: IntoParallelIterator,
{
    type Item = <&'data mut T as IntoParallelIterator>::Item;
    type Prod = <&'data mut T as IntoParallelIterator>::Prod;
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Prod> {
        self.into_par_iter()
    }
}

/// Mirror of `rayon::slice::ParallelSlice` (`.par_chunks(n)`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over non-overlapping sub-slices of length
    /// `chunk_size` (the last one may be shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<ChunksProducer<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter::from(ChunksProducer { slice: self, size: chunk_size })
    }
}

/// Mirror of `rayon::slice::ParallelSliceMut` (`.par_chunks_mut(n)`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable sub-slices of length
    /// `chunk_size` (the last one may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter::from(ChunksMutProducer { slice: self, size: chunk_size })
    }
}

impl<P: Producer> From<P> for ParIter<P> {
    fn from(producer: P) -> Self {
        ParIter { producer, min_len: 0, max_len: 0 }
    }
}

// ---------------------------------------------------------------------------
// Base producers: ranges, slices, vectors
// ---------------------------------------------------------------------------

/// Producer over an integer range.
pub struct RangeProducer<T> {
    range: std::ops::Range<T>,
}

macro_rules! range_producer {
    ($($t:ty),*) => {$(
        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type IntoSeq = std::ops::Range<$t>;
            fn len_hint(&self) -> usize {
                if self.range.end <= self.range.start {
                    0
                } else {
                    (self.range.end - self.range.start) as usize
                }
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let mid = self.range.start + mid as $t;
                (
                    RangeProducer { range: self.range.start..mid },
                    RangeProducer { range: mid..self.range.end },
                )
            }
            fn into_seq(self) -> Self::IntoSeq {
                self.range
            }
        }
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Prod = RangeProducer<$t>;
            fn into_par_iter(self) -> ParIter<RangeProducer<$t>> {
                ParIter::from(RangeProducer { range: self })
            }
        }
    )*};
}

range_producer!(u32, u64, usize, i32, i64);

/// Producer over `&[T]`.
pub struct SliceProducer<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoSeq = std::slice::Iter<'a, T>;
    fn len_hint(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(mid);
        (SliceProducer { slice: a }, SliceProducer { slice: b })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.slice.iter()
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Prod = SliceProducer<'a, T>;
    fn into_par_iter(self) -> ParIter<SliceProducer<'a, T>> {
        ParIter::from(SliceProducer { slice: self })
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Prod = SliceProducer<'a, T>;
    fn into_par_iter(self) -> ParIter<SliceProducer<'a, T>> {
        self.as_slice().into_par_iter()
    }
}

/// Producer over `&mut [T]`.
pub struct SliceMutProducer<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoSeq = std::slice::IterMut<'a, T>;
    fn len_hint(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(mid);
        (SliceMutProducer { slice: a }, SliceMutProducer { slice: b })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.slice.iter_mut()
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Prod = SliceMutProducer<'a, T>;
    fn into_par_iter(self) -> ParIter<SliceMutProducer<'a, T>> {
        ParIter::from(SliceMutProducer { slice: self })
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Prod = SliceMutProducer<'a, T>;
    fn into_par_iter(self) -> ParIter<SliceMutProducer<'a, T>> {
        self.as_mut_slice().into_par_iter()
    }
}

/// Producer over an owned `Vec<T>` (splitting allocates the tail half).
pub struct VecProducer<T> {
    vec: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoSeq = std::vec::IntoIter<T>;
    fn len_hint(&self) -> usize {
        self.vec.len()
    }
    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.vec.split_off(mid);
        (self, VecProducer { vec: tail })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.vec.into_iter()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Prod = VecProducer<T>;
    fn into_par_iter(self) -> ParIter<VecProducer<T>> {
        ParIter::from(VecProducer { vec: self })
    }
}

/// Producer behind [`ParallelSlice::par_chunks`].
pub struct ChunksProducer<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ChunksProducer<'a, T> {
    type Item = &'a [T];
    type IntoSeq = std::slice::Chunks<'a, T>;
    fn len_hint(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at(at);
        (ChunksProducer { slice: a, size: self.size }, ChunksProducer { slice: b, size: self.size })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.slice.chunks(self.size)
    }
}

/// Producer behind [`ParallelSliceMut::par_chunks_mut`].
pub struct ChunksMutProducer<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutProducer<'a, T> {
    type Item = &'a mut [T];
    type IntoSeq = std::slice::ChunksMut<'a, T>;
    fn len_hint(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (
            ChunksMutProducer { slice: a, size: self.size },
            ChunksMutProducer { slice: b, size: self.size },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.slice.chunks_mut(self.size)
    }
}

// ---------------------------------------------------------------------------
// Adaptor producers
// ---------------------------------------------------------------------------

/// Producer adaptor behind [`ParIter::map`].
pub struct MapProducer<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Clone + Send + Sync,
    R: Send,
{
    type Item = R;
    type IntoSeq = std::iter::Map<P::IntoSeq, F>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (MapProducer { base: a, f: self.f.clone() }, MapProducer { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().map(self.f)
    }
    fn is_exact(&self) -> bool {
        self.base.is_exact()
    }
}

/// Producer adaptor behind [`ParIter::filter`].
pub struct FilterProducer<P, F> {
    base: P,
    pred: F,
}

impl<P, F> Producer for FilterProducer<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Clone + Send + Sync,
{
    type Item = P::Item;
    type IntoSeq = std::iter::Filter<P::IntoSeq, F>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            FilterProducer { base: a, pred: self.pred.clone() },
            FilterProducer { base: b, pred: self.pred },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().filter(self.pred)
    }
    fn is_exact(&self) -> bool {
        false
    }
}

/// Producer adaptor behind [`ParIter::filter_map`].
pub struct FilterMapProducer<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> Producer for FilterMapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> Option<R> + Clone + Send + Sync,
    R: Send,
{
    type Item = R;
    type IntoSeq = std::iter::FilterMap<P::IntoSeq, F>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (FilterMapProducer { base: a, f: self.f.clone() }, FilterMapProducer { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().filter_map(self.f)
    }
    fn is_exact(&self) -> bool {
        false
    }
}

/// Producer adaptor behind [`ParIter::flat_map`].
pub struct FlatMapProducer<P, F> {
    base: P,
    f: F,
}

impl<P, F, U> Producer for FlatMapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> U + Clone + Send + Sync,
    U: IntoIterator,
    U::Item: Send,
{
    type Item = U::Item;
    type IntoSeq = std::iter::FlatMap<P::IntoSeq, U, F>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (FlatMapProducer { base: a, f: self.f.clone() }, FlatMapProducer { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().flat_map(self.f)
    }
    fn is_exact(&self) -> bool {
        false
    }
}

/// Producer adaptor behind [`ParIter::enumerate`].
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoSeq = std::iter::Zip<std::ops::RangeFrom<usize>, P::IntoSeq>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            EnumerateProducer { base: a, offset: self.offset },
            EnumerateProducer { base: b, offset: self.offset + mid },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        (self.offset..).zip(self.base.into_seq())
    }
    fn is_exact(&self) -> bool {
        self.base.is_exact()
    }
}

/// Producer adaptor behind [`ParIter::zip`].
pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoSeq = std::iter::Zip<A::IntoSeq, B::IntoSeq>;
    fn len_hint(&self) -> usize {
        self.a.len_hint().min(self.b.len_hint())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(mid);
        let (b1, b2) = self.b.split_at(mid);
        (ZipProducer { a: a1, b: b1 }, ZipProducer { a: a2, b: b2 })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.a.into_seq().zip(self.b.into_seq())
    }
    fn is_exact(&self) -> bool {
        self.a.is_exact() && self.b.is_exact()
    }
}

/// Producer adaptor behind [`ParIter::chain`].
pub struct ChainProducer<A, B> {
    a: A,
    b: B,
}

impl<A, B> Producer for ChainProducer<A, B>
where
    A: Producer,
    B: Producer<Item = A::Item>,
{
    type Item = A::Item;
    type IntoSeq = std::iter::Chain<A::IntoSeq, B::IntoSeq>;
    fn len_hint(&self) -> usize {
        self.a.len_hint() + self.b.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let alen = self.a.len_hint();
        if mid <= alen {
            let (a1, a2) = self.a.split_at(mid);
            let (b1, b2) = self.b.split_at(0);
            (ChainProducer { a: a1, b: b1 }, ChainProducer { a: a2, b: b2 })
        } else {
            let (a1, a2) = self.a.split_at(alen);
            let (b1, b2) = self.b.split_at(mid - alen);
            (ChainProducer { a: a1, b: b1 }, ChainProducer { a: a2, b: b2 })
        }
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.a.into_seq().chain(self.b.into_seq())
    }
    fn is_exact(&self) -> bool {
        self.a.is_exact() && self.b.is_exact()
    }
}

/// Producer adaptor behind [`ParIter::copied`].
pub struct CopiedProducer<P> {
    base: P,
}

impl<'a, T, P> Producer for CopiedProducer<P>
where
    P: Producer<Item = &'a T>,
    T: Copy + Send + Sync + 'a,
{
    type Item = T;
    type IntoSeq = std::iter::Copied<P::IntoSeq>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (CopiedProducer { base: a }, CopiedProducer { base: b })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().copied()
    }
    fn is_exact(&self) -> bool {
        self.base.is_exact()
    }
}

/// Producer adaptor behind [`ParIter::cloned`].
pub struct ClonedProducer<P> {
    base: P,
}

impl<'a, T, P> Producer for ClonedProducer<P>
where
    P: Producer<Item = &'a T>,
    T: Clone + Send + Sync + 'a,
{
    type Item = T;
    type IntoSeq = std::iter::Cloned<P::IntoSeq>;
    fn len_hint(&self) -> usize {
        self.base.len_hint()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (ClonedProducer { base: a }, ClonedProducer { base: b })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().cloned()
    }
    fn is_exact(&self) -> bool {
        self.base.is_exact()
    }
}

// ---------------------------------------------------------------------------
// Combinators and consumers
// ---------------------------------------------------------------------------

impl<P: Producer> ParIter<P> {
    /// Map each element.
    pub fn map<F, R>(self, f: F) -> ParIter<MapProducer<P, F>>
    where
        F: Fn(P::Item) -> R + Clone + Send + Sync,
        R: Send,
    {
        ParIter {
            producer: MapProducer { base: self.producer, f },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Keep elements satisfying the predicate.
    pub fn filter<F>(self, pred: F) -> ParIter<FilterProducer<P, F>>
    where
        F: Fn(&P::Item) -> bool + Clone + Send + Sync,
    {
        ParIter {
            producer: FilterProducer { base: self.producer, pred },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Filter and map in one pass.
    pub fn filter_map<F, R>(self, f: F) -> ParIter<FilterMapProducer<P, F>>
    where
        F: Fn(P::Item) -> Option<R> + Clone + Send + Sync,
        R: Send,
    {
        ParIter {
            producer: FilterMapProducer { base: self.producer, f },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Map each element to an iterator and flatten.
    pub fn flat_map<F, U>(self, f: F) -> ParIter<FlatMapProducer<P, F>>
    where
        F: Fn(P::Item) -> U + Clone + Send + Sync,
        U: IntoIterator,
        U::Item: Send,
    {
        ParIter {
            producer: FlatMapProducer { base: self.producer, f },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Pair each element with its index.
    ///
    /// # Panics
    /// If a length-changing adaptor (`filter`, `filter_map`, `flat_map`)
    /// sits upstream: chunked index assignment would be wrong there. Real
    /// rayon rejects the same composition at compile time
    /// (`enumerate` needs an `IndexedParallelIterator`).
    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>> {
        assert!(
            self.producer.is_exact(),
            "enumerate() requires an indexed parallel iterator \
             (no filter/filter_map/flat_map upstream), as in real rayon"
        );
        ParIter {
            producer: EnumerateProducer { base: self.producer, offset: 0 },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Zip with anything convertible to a parallel iterator.
    ///
    /// # Panics
    /// If either side has a length-changing adaptor (`filter`,
    /// `filter_map`, `flat_map`) upstream: chunked pairing would be wrong
    /// there. Real rayon rejects the same composition at compile time
    /// (`zip` needs `IndexedParallelIterator`s).
    pub fn zip<Z>(self, other: Z) -> ParIter<ZipProducer<P, Z::Prod>>
    where
        Z: IntoParallelIterator,
    {
        let b = other.into_par_iter().producer;
        assert!(
            self.producer.is_exact() && b.is_exact(),
            "zip() requires indexed parallel iterators on both sides \
             (no filter/filter_map/flat_map upstream), as in real rayon"
        );
        ParIter {
            producer: ZipProducer { a: self.producer, b },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Concatenate with another iterator of the same item type.
    pub fn chain<C>(self, other: C) -> ParIter<ChainProducer<P, C::Prod>>
    where
        C: IntoParallelIterator<Item = P::Item>,
    {
        ParIter {
            producer: ChainProducer { a: self.producer, b: other.into_par_iter().producer },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Copy `&T` items into `T` items.
    pub fn copied<'a, T>(self) -> ParIter<CopiedProducer<P>>
    where
        P: Producer<Item = &'a T>,
        T: Copy + Send + Sync + 'a,
    {
        ParIter {
            producer: CopiedProducer { base: self.producer },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Clone `&T` items into `T` items.
    pub fn cloned<'a, T>(self) -> ParIter<ClonedProducer<P>>
    where
        P: Producer<Item = &'a T>,
        T: Clone + Send + Sync + 'a,
    {
        ParIter {
            producer: ClonedProducer { base: self.producer },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Require at least `min` elements per chunk (affects only how work is
    /// partitioned; results are unchanged).
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min;
        self
    }

    /// Allow at most `max` elements per chunk (affects only how work is
    /// partitioned; results are unchanged).
    pub fn with_max_len(mut self, max: usize) -> Self {
        self.max_len = max;
        self
    }

    /// Consume, applying `f` to every element (chunks run concurrently on
    /// the current pool).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        drive(self, |it| it.for_each(&f));
    }

    /// Sum all elements. Partial sums are combined in chunk order, so the
    /// result is identical for every pool size (but may differ from a
    /// single sequential fold on non-associative types such as floats).
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        drive(self, |it| it.sum::<S>()).into_iter().sum()
    }

    /// Count the elements.
    pub fn count(self) -> usize {
        drive(self, |it| it.count()).into_iter().sum()
    }

    /// Rayon's two-argument reduce: fold every chunk from `identity()`,
    /// then combine the per-chunk results in chunk order with `op`.
    pub fn reduce<OP, ID>(self, identity: ID, op: OP) -> P::Item
    where
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
        ID: Fn() -> P::Item + Send + Sync,
    {
        let partials = drive(self, |it| it.fold(identity(), &op));
        partials.into_iter().fold(identity(), &op)
    }

    /// Minimum element (requires `Ord`).
    pub fn min(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        drive(self, |it| it.min()).into_iter().flatten().min()
    }

    /// Maximum element (requires `Ord`).
    pub fn max(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        drive(self, |it| it.max()).into_iter().flatten().max()
    }

    /// Do all elements satisfy the predicate? (Evaluates every chunk; no
    /// early exit across chunks.)
    pub fn all<F>(self, pred: F) -> bool
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        drive(self, |mut it| it.all(&pred)).into_iter().all(|b| b)
    }

    /// Does any element satisfy the predicate?
    pub fn any<F>(self, pred: F) -> bool
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        drive(self, |mut it| it.any(&pred)).into_iter().any(|b| b)
    }

    /// Collect into any [`FromParallelIterator`] collection, preserving
    /// element order.
    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<P::Item>,
    {
        C::from_par_iter(self)
    }

    /// Collect into a caller-provided `Vec`, replacing its contents while
    /// reusing its allocation. The target is sized once, from the chunk
    /// lengths, and filled by appending whole chunks.
    pub fn collect_into_vec(self, target: &mut Vec<P::Item>) {
        target.clear();
        let len = self.producer.len_hint();
        if len <= chunk_len(len, self.min_len, self.max_len) {
            // Inline path: no intermediate chunk vectors at all.
            target.extend(self.producer.into_seq());
            return;
        }
        let chunks = drive(self, |it| it.collect::<Vec<_>>());
        target.reserve_exact(chunks.iter().map(Vec::len).sum());
        for mut chunk in chunks {
            target.append(&mut chunk);
        }
    }
}

/// Mirror of `rayon::iter::FromParallelIterator`: a collection that
/// [`ParIter::collect`] can build, in element order.
pub trait FromParallelIterator<T: Send> {
    /// Build the collection from every element of `par`.
    fn from_par_iter<P: Producer<Item = T>>(par: ParIter<P>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    /// Via [`ParIter::collect_into_vec`]: one allocation of the exact
    /// length, whole chunks appended.
    fn from_par_iter<P: Producer<Item = T>>(par: ParIter<P>) -> Self {
        let mut out = Vec::new();
        par.collect_into_vec(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

    #[test]
    fn range_map_sum() {
        let s: u64 = (0u64..100).into_par_iter().map(|x| x * 2).sum();
        assert_eq!(s, 9900);
    }

    #[test]
    fn slice_par_iter_and_mut() {
        let mut v = vec![1i64, 2, 3];
        let total: i64 = v.par_iter().copied().sum();
        assert_eq!(total, 6);
        v.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(v, vec![11, 12, 13]);
    }

    #[test]
    fn reduce_with_identity() {
        let m = (1..6i32).into_par_iter().map(|x| x as f64).reduce(|| f64::INFINITY, f64::min);
        assert_eq!(m, 1.0);
        let empty = (0..0).into_par_iter().map(|x| x as f64).reduce(|| 0.5, f64::max);
        assert_eq!(empty, 0.5);
    }

    #[test]
    fn zip_enumerate_collect_into_vec() {
        let a = vec![1u32, 2, 3];
        let b = vec![10u32, 20, 30];
        let mut out = Vec::new();
        a.par_iter()
            .zip(&b)
            .enumerate()
            .map(|(k, (x, y))| k as u32 + x + y)
            .collect_into_vec(&mut out);
        assert_eq!(out, vec![11, 23, 35]);
    }

    #[test]
    fn all_any_filter() {
        assert!((0..10).into_par_iter().all(|x| x < 10));
        assert!((0..10).into_par_iter().any(|x| x == 7));
        let odd: Vec<i32> = (0..10).into_par_iter().filter(|x| x % 2 == 1).collect();
        assert_eq!(odd, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn large_for_each_runs_on_pool_and_hits_every_index() {
        use std::sync::atomic::{AtomicU8, Ordering};
        let n = 100_000usize;
        let hits: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            (0..n).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn float_sum_is_identical_across_pool_sizes() {
        let xs: Vec<f64> = (0..50_000).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let mut results = Vec::new();
        for t in [1usize, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            results.push(pool.install(|| xs.par_iter().sum::<f64>()).to_bits());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn collect_preserves_order_on_large_inputs() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let v: Vec<usize> = pool.install(|| (0..30_000usize).into_par_iter().map(|x| x).collect());
        assert_eq!(v.len(), 30_000);
        assert!(v.iter().enumerate().all(|(k, &x)| k == x));
    }

    #[test]
    fn collect_sizes_its_vec_once_and_keeps_order_across_chunk_boundaries() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let big = DEFAULT_CHUNK * MAX_CHUNKS;
        for len in [
            DEFAULT_CHUNK - 1,
            DEFAULT_CHUNK,
            DEFAULT_CHUNK + 1,
            2 * DEFAULT_CHUNK - 1,
            2 * DEFAULT_CHUNK,
            2 * DEFAULT_CHUNK + 1,
            big - 1,
            big,
            big + 1,
        ] {
            let v: Vec<u32> = pool.install(|| (0..len as u32).into_par_iter().collect());
            assert_eq!(v.len(), len);
            assert_eq!(v.capacity(), len, "collect of {len} elements over-allocated");
            assert!(v.iter().enumerate().all(|(k, &x)| k as u32 == x), "order at {len}");
        }
    }

    #[test]
    fn collect_into_vec_reuses_allocation() {
        let mut out: Vec<u32> = Vec::new();
        (0..20_000u32).into_par_iter().map(|x| x + 1).collect_into_vec(&mut out);
        let ptr = out.as_ptr();
        let cap = out.capacity();
        (0..20_000u32).into_par_iter().map(|x| x + 2).collect_into_vec(&mut out);
        assert_eq!(out[0], 2);
        assert_eq!(out.as_ptr(), ptr, "target allocation must be reused");
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn par_chunks_and_chunks_mut() {
        let v: Vec<u32> = (0..10_000).collect();
        let per_chunk: Vec<u64> =
            v.par_chunks(100).map(|c| c.iter().map(|&x| x as u64).sum()).collect();
        assert_eq!(per_chunk.len(), 100);
        assert_eq!(per_chunk.iter().sum::<u64>(), (0..10_000u64).sum());
        let mut w = vec![0u8; 4096];
        w.par_chunks_mut(7).for_each(|c| c.fill(1));
        assert!(w.iter().all(|&x| x == 1));
    }

    #[test]
    fn chain_and_flat_map() {
        let a = vec![1u32, 2];
        let total: u32 =
            a.par_iter().copied().chain((3u32..5).into_par_iter()).map(|x| x * 10).sum();
        assert_eq!(total, 100);
        let doubled: Vec<u32> = (0u32..4).into_par_iter().flat_map(|x| vec![x, x]).collect();
        assert_eq!(doubled, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn min_max_filter_map() {
        assert_eq!((5u32..50).into_par_iter().min(), Some(5));
        assert_eq!((5u32..50).into_par_iter().max(), Some(49));
        let evens: Vec<u32> =
            (0u32..10).into_par_iter().filter_map(|x| (x % 2 == 0).then_some(x)).collect();
        assert_eq!(evens, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "enumerate() requires an indexed parallel iterator")]
    fn enumerate_after_filter_is_rejected() {
        // Real rayon makes this unrepresentable (filter is unindexed);
        // the shim must refuse rather than hand out wrong indices.
        let _ = (0u32..5000).into_par_iter().filter(|x| x % 2 == 0).enumerate();
    }

    #[test]
    #[should_panic(expected = "zip() requires indexed parallel iterators")]
    fn zip_after_filter_is_rejected() {
        let _ = (0u32..5000).into_par_iter().filter(|x| x % 2 == 0).zip(0u32..2500);
    }

    #[test]
    fn with_max_len_cannot_exceed_chunk_bound() {
        // The MAX_CHUNKS invariant outranks the hint: a tiny max_len on a
        // huge input must not explode into millions of jobs.
        let chunk = chunk_len(10_000_000, 0, 16);
        assert!(10_000_000usize.div_ceil(chunk) <= MAX_CHUNKS);
        // On small inputs the hint is honoured exactly.
        assert_eq!(chunk_len(2_000, 0, 16), 16);
        // And results stay correct either way.
        let s: u64 = (0u64..100_000).into_par_iter().with_max_len(16).sum();
        assert_eq!(s, (0u64..100_000).sum());
    }

    #[test]
    fn with_min_len_changes_partitioning_not_results() {
        let base: u64 = (0u64..10_000).into_par_iter().sum();
        let hinted: u64 = (0u64..10_000).into_par_iter().with_min_len(10_000).sum();
        // min_len forces a single chunk here; the sum of integers is
        // partition-independent either way.
        assert_eq!(base, hinted);
    }
}
