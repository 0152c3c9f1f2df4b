// A fixed-capacity inline vector used for per-packet data (e.g. INT stacks)
// where heap allocation per hop would dominate simulator cost.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <initializer_list>

namespace fncc {

/// Fixed-capacity vector with inline storage. Elements must be trivially
/// destructible (enforced) because clear() does not run destructors.
template <typename T, std::size_t N>
class StaticVector {
  static_assert(std::is_trivially_destructible_v<T>,
                "StaticVector only supports trivially destructible types");

 public:
  StaticVector() = default;
  StaticVector(std::initializer_list<T> init) {
    assert(init.size() <= N);
    for (const T& v : init) push_back(v);
  }

  void push_back(const T& v) {
    assert(size_ < N && "StaticVector overflow");
    data_[size_++] = v;
  }

  /// Appends a default-constructed element and returns a reference to it.
  T& emplace_back() {
    assert(size_ < N && "StaticVector overflow");
    data_[size_] = T{};
    return data_[size_++];
  }

  /// Replaces the contents with [first, last).
  void assign(const T* first, const T* last) {
    assert(static_cast<std::size_t>(last - first) <= N);
    size_ = 0;
    for (; first != last; ++first) data_[size_++] = *first;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == N; }
  static constexpr std::size_t capacity() { return N; }

  T* begin() { return data_.data(); }
  T* end() { return data_.data() + size_; }
  const T* begin() const { return data_.data(); }
  const T* end() const { return data_.data() + size_; }

  friend bool operator==(const StaticVector& a, const StaticVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  std::array<T, N> data_{};
  std::size_t size_ = 0;
};

}  // namespace fncc
