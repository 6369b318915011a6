/**
 * @file
 * Sorted-vector map and set for per-node analysis state.
 *
 * Every fixpoint here copies, joins and compares its node states on
 * each worklist step. A node-based std::map or std::set pays one heap
 * allocation per entry on each copy; these keep their entries in one
 * contiguous sorted vector, so a copy costs at most one allocation and
 * a compare is a linear scan. Iteration order (ascending key) and ==
 * match the node-based containers they replace. Inserting or erasing
 * shifts later entries and invalidates every iterator past the edit
 * point, as with any vector.
 */

#ifndef CRISP_ANALYSIS_FLAT_HH
#define CRISP_ANALYSIS_FLAT_HH

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace crisp::analysis
{

/** Map from K to V kept as a vector of pairs sorted by key. */
template <class K, class V>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator = typename std::vector<value_type>::const_iterator;

    iterator begin() { return v_.begin(); }
    iterator end() { return v_.end(); }
    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }

    std::size_t size() const { return v_.size(); }
    void clear() { v_.clear(); }

    iterator
    find(const K& k)
    {
        const auto it = lowerBound(k);
        return it != v_.end() && it->first == k ? it : v_.end();
    }

    const_iterator
    find(const K& k) const
    {
        const auto it = lowerBound(k);
        return it != v_.end() && it->first == k ? it : v_.end();
    }

    /** The value at @p k, inserted value-initialized when absent. */
    V&
    operator[](const K& k)
    {
        auto it = lowerBound(k);
        if (it == v_.end() || it->first != k)
            it = v_.emplace(it, k, V{});
        return it->second;
    }

    /** Insert (k, v) unless @p k is present; like std::map::emplace. */
    std::pair<iterator, bool>
    emplace(const K& k, V v)
    {
        auto it = lowerBound(k);
        if (it != v_.end() && it->first == k)
            return {it, false};
        return {v_.emplace(it, k, std::move(v)), true};
    }

    std::size_t
    erase(const K& k)
    {
        const auto it = find(k);
        if (it == v_.end())
            return 0;
        v_.erase(it);
        return 1;
    }

    /**
     * Visit the entries in key order and erase those @p drop returns
     * true for, in one compacting pass. @p drop may modify the value of
     * an entry it keeps.
     */
    template <class Drop>
    void
    eraseIf(Drop drop)
    {
        auto out = v_.begin();
        for (auto it = v_.begin(); it != v_.end(); ++it) {
            if (drop(*it))
                continue;
            if (out != it)
                *out = std::move(*it);
            ++out;
        }
        v_.erase(out, v_.end());
    }

    bool operator==(const FlatMap&) const = default;

  private:
    iterator
    lowerBound(const K& k)
    {
        return std::lower_bound(
            v_.begin(), v_.end(), k,
            [](const value_type& e, const K& key) { return e.first < key; });
    }

    const_iterator
    lowerBound(const K& k) const
    {
        return std::lower_bound(
            v_.begin(), v_.end(), k,
            [](const value_type& e, const K& key) { return e.first < key; });
    }

    std::vector<value_type> v_;
};

/** Set of T kept as a sorted, duplicate-free vector. */
template <class T>
class FlatSet
{
  public:
    using const_iterator = typename std::vector<T>::const_iterator;

    FlatSet() = default;

    FlatSet(std::initializer_list<T> init) : v_(init)
    {
        std::sort(v_.begin(), v_.end());
        v_.erase(std::unique(v_.begin(), v_.end()), v_.end());
    }

    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }

    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    void clear() { v_.clear(); }

    std::size_t
    count(const T& x) const
    {
        return std::binary_search(v_.begin(), v_.end(), x) ? 1 : 0;
    }

    /** Add @p x; false when it was already present. */
    bool
    insert(const T& x)
    {
        const auto it = std::lower_bound(v_.begin(), v_.end(), x);
        if (it != v_.end() && *it == x)
            return false;
        v_.insert(it, x);
        return true;
    }

    std::size_t
    erase(const T& x)
    {
        const auto it = std::lower_bound(v_.begin(), v_.end(), x);
        if (it == v_.end() || *it != x)
            return 0;
        v_.erase(it);
        return 1;
    }

    /** The set holding @p v, which must be sorted and duplicate-free. */
    static FlatSet
    fromSorted(std::vector<T> v)
    {
        FlatSet s;
        s.v_ = std::move(v);
        return s;
    }

    bool operator==(const FlatSet&) const = default;

  private:
    std::vector<T> v_;
};

/** a ∪ b, a ∩ b and a \ b of two sorted sets. */
template <class T>
FlatSet<T>
setUnion(const FlatSet<T>& a, const FlatSet<T>& b)
{
    std::vector<T> r;
    r.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(r));
    return FlatSet<T>::fromSorted(std::move(r));
}

template <class T>
FlatSet<T>
setIntersection(const FlatSet<T>& a, const FlatSet<T>& b)
{
    std::vector<T> r;
    r.reserve(std::min(a.size(), b.size()));
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(r));
    return FlatSet<T>::fromSorted(std::move(r));
}

template <class T>
FlatSet<T>
setDifference(const FlatSet<T>& a, const FlatSet<T>& b)
{
    std::vector<T> r;
    r.reserve(a.size());
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(r));
    return FlatSet<T>::fromSorted(std::move(r));
}

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_FLAT_HH
