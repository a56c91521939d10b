// Entry <-> machine-word codecs for network transmission.
//
// The congested clique charges one round per word per link; a matrix entry
// that needs b bits costs ceil(b/64) words. These codecs define that cost
// for each entry type and perform the (de)serialisation. The polynomial
// codec's width equals the polynomial cap, which is how the O(M) factor of
// Lemma 18 enters the measured round counts; the packed Boolean codec fits
// 64 entries in a word, which is how the "/ log n" factors in Table 1's
// prior-work rows arise.
//
// Codecs encode BLOCKS: the distributed algorithms move contiguous
// submatrix pieces, and a block codec may use fewer words than
// entries x words-per-entry (bit packing). `words_for(count)` must be the
// exact encoded size of a `count`-entry block.
//
// Each codec exposes two symmetric interfaces:
//  * encode_into / decode_into — zero-copy forms writing into caller-owned
//    memory (a Network::stage span on the send side, a scratch buffer or
//    matrix row on the receive side). encode_into writes every word it owns
//    (no read-modify-write), so staged spans need no pre-zeroing;
//    decode_into overwrites out[0..count) and never allocates (the
//    polynomial codec reuses the coefficient storage of the scratch entries
//    when the caps match).
//  * encode_block / decode_block — the allocating conveniences, implemented
//    on top of the zero-copy forms.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "matrix/poly.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"

namespace cca {

using EncodedWord = std::uint64_t;

/// 64-bit signed integers: one word per entry (covers poly(n)-bounded
/// values, min-plus distances with the infinity sentinel, and counts).
struct I64Codec {
  using Value = std::int64_t;
  [[nodiscard]] std::size_t words_for(std::size_t entries) const noexcept {
    return entries;
  }
  void encode_into(std::span<const Value> vals, EncodedWord* out) const {
    for (std::size_t i = 0; i < vals.size(); ++i)
      out[i] = std::bit_cast<EncodedWord>(vals[i]);
  }
  void decode_into(const EncodedWord* words, std::size_t count,
                   Value* out) const {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = std::bit_cast<Value>(words[i]);
  }
  void encode_block(const std::vector<Value>& vals,
                    std::vector<EncodedWord>& out) const {
    const std::size_t base = out.size();
    out.resize(base + words_for(vals.size()));
    encode_into(vals, out.data() + base);
  }
  [[nodiscard]] std::vector<Value> decode_block(const EncodedWord* words,
                                                std::size_t count) const {
    std::vector<Value> out(count);
    decode_into(words, count, out.data());
    return out;
  }
};

/// Byte-valued entries (Boolean semiring), one word per entry — the
/// unpacked default matching the paper's headline bounds.
struct ByteCodec {
  using Value = std::uint8_t;
  [[nodiscard]] std::size_t words_for(std::size_t entries) const noexcept {
    return entries;
  }
  void encode_into(std::span<const Value> vals, EncodedWord* out) const {
    for (std::size_t i = 0; i < vals.size(); ++i) out[i] = vals[i];
  }
  void decode_into(const EncodedWord* words, std::size_t count,
                   Value* out) const {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = static_cast<Value>(words[i]);
  }
  void encode_block(const std::vector<Value>& vals,
                    std::vector<EncodedWord>& out) const {
    const std::size_t base = out.size();
    out.resize(base + words_for(vals.size()));
    encode_into(vals, out.data() + base);
  }
  [[nodiscard]] std::vector<Value> decode_block(const EncodedWord* words,
                                                std::size_t count) const {
    std::vector<Value> out(count);
    decode_into(words, count, out.data());
    return out;
  }
};

/// Bit-packed Booleans: 64 entries per word. Using this codec with the
/// Boolean-semiring products reproduces the O(log n)-factor savings the
/// prior-work rows of Table 1 exploit (Dolev et al.'s O(n^{1/3}/log n)).
struct PackedBoolCodec {
  using Value = std::uint8_t;
  [[nodiscard]] std::size_t words_for(std::size_t entries) const noexcept {
    return (entries + 63) / 64;
  }
  void encode_into(std::span<const Value> vals, EncodedWord* out) const {
    // Assemble each word in a register and store it whole, so the
    // destination needs no pre-zeroing.
    const std::size_t nwords = words_for(vals.size());
    for (std::size_t w = 0; w < nwords; ++w) {
      EncodedWord word = 0;
      const std::size_t lo = w * 64;
      const std::size_t hi =
          lo + 64 < vals.size() ? lo + 64 : vals.size();
      for (std::size_t i = lo; i < hi; ++i)
        if (vals[i] != 0) word |= EncodedWord{1} << (i - lo);
      out[w] = word;
    }
  }
  void decode_into(const EncodedWord* words, std::size_t count,
                   Value* out) const {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = static_cast<Value>((words[i / 64] >> (i % 64)) & 1);
  }
  void encode_block(const std::vector<Value>& vals,
                    std::vector<EncodedWord>& out) const {
    const std::size_t base = out.size();
    out.resize(base + words_for(vals.size()));
    encode_into(vals, out.data() + base);
  }
  [[nodiscard]] std::vector<Value> decode_block(const EncodedWord* words,
                                                std::size_t count) const {
    std::vector<Value> out(count);
    decode_into(words, count, out.data());
    return out;
  }
};

/// Sparse coordinate blocks: a block is a list of (index, value) pairs with
/// the indices packed two per word (32 bits each — enough for any in-clique
/// row/column index) followed by the values encoded as ONE block of the
/// wrapped value codec. Wrapping PackedBoolCodec therefore packs the value
/// stream 64 entries per word exactly as the dense path does, so the sparse
/// engine inherits every "/ log n" saving of Table 1's prior-work rows on
/// Boolean inputs. `words_for(nnz)` is the exact encoded size of an
/// nnz-pair block; the pair count itself travels out-of-band (the sparse
/// multiplication messages carry explicit count header words, because a
/// receiver cannot always invert words -> pairs for bit-packing codecs).
///
/// Zero-copy contract (PR 2): encode_into writes every word it owns — the
/// half-filled tail of an odd index word is stored whole with the upper 32
/// bits zero — so staged spans need no pre-zeroing; decode_into never
/// allocates beyond what the wrapped codec's decode_into does.
template <typename ValueCodec>
struct SparseCodec {
  using Value = typename ValueCodec::Value;
  using Index = std::uint32_t;
  ValueCodec values{};

  /// Words for the packed index stream alone.
  [[nodiscard]] static std::size_t index_words(std::size_t nnz) noexcept {
    return (nnz + 1) / 2;
  }
  [[nodiscard]] std::size_t words_for(std::size_t nnz) const noexcept {
    return index_words(nnz) + values.words_for(nnz);
  }
  void encode_into(std::span<const Index> idx, std::span<const Value> vals,
                   EncodedWord* out) const {
    CCA_EXPECTS(idx.size() == vals.size());
    const std::size_t iw = index_words(idx.size());
    for (std::size_t w = 0; w < iw; ++w) {
      EncodedWord word = static_cast<EncodedWord>(idx[2 * w]);
      if (2 * w + 1 < idx.size())
        word |= static_cast<EncodedWord>(idx[2 * w + 1]) << 32;
      out[w] = word;
    }
    values.encode_into(vals, out + iw);
  }
  void decode_into(const EncodedWord* words, std::size_t nnz, Index* idx,
                   Value* vals) const {
    for (std::size_t i = 0; i < nnz; ++i)
      idx[i] = static_cast<Index>((words[i / 2] >> (32 * (i % 2))) &
                                  0xffffffffu);
    values.decode_into(words + index_words(nnz), nnz, vals);
  }
  void encode_block(const std::vector<Index>& idx,
                    const std::vector<Value>& vals,
                    std::vector<EncodedWord>& out) const {
    const std::size_t base = out.size();
    out.resize(base + words_for(idx.size()));
    encode_into(idx, vals, out.data() + base);
  }
};

/// Capped polynomials: `cap` words per entry (one per coefficient).
struct PolyCodec {
  using Value = CappedPoly;
  int cap = 1;

  [[nodiscard]] std::size_t words_for(std::size_t entries) const noexcept {
    return entries * static_cast<std::size_t>(cap);
  }
  void encode_into(std::span<const Value> vals, EncodedWord* out) const {
    for (std::size_t e = 0; e < vals.size(); ++e) {
      const auto& v = vals[e];
      CCA_EXPECTS(v.cap() == cap);
      for (int d = 0; d < cap; ++d)
        out[e * static_cast<std::size_t>(cap) + static_cast<std::size_t>(d)] =
            std::bit_cast<EncodedWord>(v.coeff(d));
    }
  }
  /// Decode into scratch entries, reusing each entry's heap-backed
  /// coefficient storage when its cap already matches (the steady state of
  /// a reused scratch buffer) — the distance-product / APSP inner loops
  /// stop allocating per message.
  void decode_into(const EncodedWord* words, std::size_t count,
                   Value* out) const {
    for (std::size_t e = 0; e < count; ++e) {
      Value& p = out[e];
      if (p.cap() != cap) p = CappedPoly(cap);
      for (int d = 0; d < cap; ++d)
        p.coeff(d) = std::bit_cast<std::int64_t>(
            words[e * static_cast<std::size_t>(cap) +
                  static_cast<std::size_t>(d)]);
    }
  }
  void encode_block(const std::vector<Value>& vals,
                    std::vector<EncodedWord>& out) const {
    const std::size_t base = out.size();
    out.resize(base + words_for(vals.size()));
    encode_into(vals, out.data() + base);
  }
  [[nodiscard]] std::vector<Value> decode_block(const EncodedWord* words,
                                                std::size_t count) const {
    std::vector<Value> out(count);
    decode_into(words, count, out.data());
    return out;
  }
};

/// Witnessed min-plus entries (WDist): two words per entry, the distance
/// then the witness — the "entries cost two words" of the witnessed
/// distance products behind exact APSP. Only the engines use it, so it
/// has only the zero-copy forms.
struct WDistCodec {
  using Value = WDist;
  [[nodiscard]] std::size_t words_for(std::size_t entries) const noexcept {
    return 2 * entries;
  }
  void encode_into(std::span<const Value> vals, EncodedWord* out) const {
    for (std::size_t i = 0; i < vals.size(); ++i) {
      out[2 * i] = static_cast<EncodedWord>(vals[i].d);
      out[2 * i + 1] = static_cast<EncodedWord>(vals[i].w);
    }
  }
  void decode_into(const EncodedWord* words, std::size_t count,
                   Value* out) const {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = {static_cast<std::int64_t>(words[2 * i]),
                static_cast<std::int64_t>(words[2 * i + 1])};
  }
};

}  // namespace cca
