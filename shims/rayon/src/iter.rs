//! Parallel iterators over splittable producers.
//!
//! The model is a simplified rayon: a [`Producer`] is a splittable
//! description of a data source (an index range, a slice, an adaptor over
//! another producer) whose length, [`Producer::len_hint`], is always the
//! exact element count — every adaptor here preserves length, as rayon's
//! indexed parallel iterators do. Consuming methods split the producer
//! into chunks whose boundaries depend **only on that length and the
//! `with_max_len` hint — never on the pool size** — fold each chunk
//! sequentially (on the current pool's workers), and combine the
//! per-chunk results in chunk order. This makes every reduction,
//! including floating-point sums, bitwise reproducible across pool sizes,
//! while per-element effects (`for_each`) run genuinely concurrently.
//!
//! Inputs no larger than one chunk run inline on the calling thread, so
//! small problems pay no dispatch overhead.

use crate::pool;

/// Elements per chunk before the hint is applied. Small enough to load
/// balance skewed work (e.g. Karp–Sipser chain walks), large enough that
/// per-job overhead (one allocation + one queue operation) is noise.
const DEFAULT_CHUNK: usize = 1024;

/// Upper bound on the number of chunks a single parallel call produces
/// (long inputs get proportionally longer chunks).
const MAX_CHUNKS: usize = 256;

/// A splittable, sendable description of a sequence — the engine behind
/// [`ParIter`].
pub trait Producer: Sized + Send {
    /// Element type produced.
    type Item: Send;
    /// Sequential iterator a (sub-)producer decays into.
    type IntoSeq: Iterator<Item = Self::Item>;

    /// Exact number of elements, which is also the chunking domain size.
    fn len_hint(&self) -> usize;

    /// Split into the first `mid` elements and the rest. `mid` is at most
    /// `len_hint()`.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Decay into a sequential iterator over this producer's elements.
    fn into_seq(self) -> Self::IntoSeq;
}

/// A parallel iterator: a [`Producer`] plus a chunk-size hint.
pub struct ParIter<P> {
    producer: P,
    max_len: usize,
}

fn chunk_len(len: usize, max_len: usize) -> usize {
    // `max_len` is a partitioning hint, honoured only down to the
    // `len / MAX_CHUNKS` floor: the bound on the number of chunks (and
    // with it the job-queue pressure of one parallel call) always wins.
    let floor = len.div_ceil(MAX_CHUNKS).max(1);
    let mut chunk = DEFAULT_CHUNK.max(floor);
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
    let ParIter { producer, max_len } = par;
    let len = producer.len_hint();
    let chunk = chunk_len(len, max_len);
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

/// Mirror of `rayon::iter::IntoParallelIterator`, implemented for `u32` and
/// `usize` ranges, slices, and [`ParIter`] itself.
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

impl<P: Producer> From<P> for ParIter<P> {
    fn from(producer: P) -> Self {
        ParIter { producer, max_len: 0 }
    }
}

// ---------------------------------------------------------------------------
// Base producers: ranges and slices
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

range_producer!(u32, usize);

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
        ParIter { producer: MapProducer { base: self.producer, f }, max_len: self.max_len }
    }

    /// Pair each element with its index.
    pub fn enumerate(self) -> ParIter<EnumerateProducer<P>> {
        ParIter {
            producer: EnumerateProducer { base: self.producer, offset: 0 },
            max_len: self.max_len,
        }
    }

    /// Zip with anything convertible to a parallel iterator.
    pub fn zip<Z>(self, other: Z) -> ParIter<ZipProducer<P, Z::Prod>>
    where
        Z: IntoParallelIterator,
    {
        let b = other.into_par_iter().producer;
        ParIter { producer: ZipProducer { a: self.producer, b }, max_len: self.max_len }
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
        if len <= chunk_len(len, self.max_len) {
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
        let s: usize = (0usize..100).into_par_iter().map(|x| x * 2).sum();
        assert_eq!(s, 9900);
    }

    #[test]
    fn slice_par_iter_and_mut() {
        let mut v = vec![1i64, 2, 3];
        let total: i64 = v.par_iter().sum();
        assert_eq!(total, 6);
        v.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(v, vec![11, 12, 13]);
    }

    #[test]
    fn reduce_with_identity() {
        let m = (1..6u32).into_par_iter().map(|x| x as f64).reduce(|| f64::INFINITY, f64::min);
        assert_eq!(m, 1.0);
        let empty = (0..0u32).into_par_iter().map(|x| x as f64).reduce(|| 0.5, f64::max);
        assert_eq!(empty, 0.5);
    }

    #[test]
    fn zip_enumerate_collect_into_vec() {
        let a = [1u32, 2, 3];
        let b = [10u32, 20, 30];
        let mut out = Vec::new();
        a.par_iter()
            .zip(b.par_iter())
            .enumerate()
            .map(|(k, (x, y))| k as u32 + x + y)
            .collect_into_vec(&mut out);
        assert_eq!(out, vec![11, 23, 35]);
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
    }

    #[test]
    fn with_max_len_cannot_exceed_chunk_bound() {
        // The MAX_CHUNKS invariant outranks the hint: a tiny max_len on a
        // huge input must not explode into millions of jobs.
        let chunk = chunk_len(10_000_000, 16);
        assert!(10_000_000usize.div_ceil(chunk) <= MAX_CHUNKS);
        // On small inputs the hint is honoured exactly.
        assert_eq!(chunk_len(2_000, 16), 16);
        // And results stay correct either way.
        let s: usize = (0usize..100_000).into_par_iter().with_max_len(16).sum();
        assert_eq!(s, (0usize..100_000).sum());
    }
}
