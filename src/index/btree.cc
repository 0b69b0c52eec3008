#include "index/btree.h"

#include <algorithm>

namespace qp::index {

using storage::Value;

bool RangeBounds::Contains(const Value& v) const {
  if (v.is_null()) return false;
  if (has_lo) {
    const int c = v.Compare(lo);
    if (c < 0 || (c == 0 && !lo_inclusive)) return false;
  }
  if (has_hi) {
    const int c = v.Compare(hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) return false;
  }
  return true;
}

namespace {

/// One entry: column value + row position. Entries order by (key, pos) so
/// duplicate keys stay distinct and range scans replay matches in row order
/// within a key run.
struct EntryKey {
  Value key;
  size_t pos = 0;
};

int CompareEntry(const EntryKey& a, const EntryKey& b) {
  const int c = a.key.Compare(b.key);
  if (c != 0) return c;
  if (a.pos < b.pos) return -1;
  return a.pos > b.pos ? 1 : 0;
}

}  // namespace

struct BTreeNode {
  bool leaf = true;
  /// Leaf: the entries themselves. Internal: separators, where keys[i] is
  /// the smallest entry reachable under children[i + 1].
  std::vector<EntryKey> keys;
  std::vector<std::unique_ptr<BTreeNode>> children;  // internal only
  BTreeNode* next = nullptr;                         // leaf chain

  /// Index of the child to descend into for `k`.
  size_t ChildIndex(const EntryKey& k) const {
    size_t i = 0;
    while (i < keys.size() && CompareEntry(k, keys[i]) >= 0) ++i;
    return i;
  }

  /// First leaf slot with entry >= k (== keys.size() when none).
  size_t LeafLowerBound(const EntryKey& k) const {
    size_t lo = 0, hi = keys.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (CompareEntry(keys[mid], k) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Smallest entry under this subtree.
  const EntryKey& MinEntry() const {
    const BTreeNode* n = this;
    while (!n->leaf) n = n->children.front().get();
    return n->keys.front();
  }
};

namespace {

using Node = BTreeNode;

size_t MinKeys(size_t max_keys) { return max_keys / 2; }

/// Result of an insert below: set when the child split.
struct SplitResult {
  EntryKey separator;  // smallest entry of the new right sibling's subtree
  std::unique_ptr<Node> right;
};

/// Splits an overfull node in half, returning the right sibling and the
/// separator to push into the parent.
SplitResult SplitNode(Node* node) {
  SplitResult result;
  auto right = std::make_unique<Node>();
  right->leaf = node->leaf;
  const size_t mid = node->keys.size() / 2;
  if (node->leaf) {
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    node->keys.resize(mid);
    right->next = node->next;
    node->next = right.get();
    result.separator = right->keys.front();
  } else {
    // keys[mid] moves up; children split around it.
    result.separator = node->keys[mid];
    right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
    node->keys.resize(mid);
    right->children.reserve(node->children.size() - (mid + 1));
    for (size_t i = mid + 1; i < node->children.size(); ++i) {
      right->children.push_back(std::move(node->children[i]));
    }
    node->children.resize(mid + 1);
  }
  result.right = std::move(right);
  return result;
}

/// Inserts `k` under `node`; returns a split result when `node` overflowed.
/// `inserted` reports whether a new entry was actually added (an exact
/// (key, pos) duplicate is kept once).
std::unique_ptr<SplitResult> InsertRec(Node* node, const EntryKey& k,
                                       size_t max_keys, bool* inserted) {
  if (node->leaf) {
    const size_t slot = node->LeafLowerBound(k);
    if (slot < node->keys.size() && CompareEntry(node->keys[slot], k) == 0) {
      *inserted = false;
      return nullptr;
    }
    node->keys.insert(node->keys.begin() + slot, k);
    *inserted = true;
  } else {
    const size_t c = node->ChildIndex(k);
    std::unique_ptr<SplitResult> child_split =
        InsertRec(node->children[c].get(), k, max_keys, inserted);
    if (child_split != nullptr) {
      node->keys.insert(node->keys.begin() + c,
                        std::move(child_split->separator));
      node->children.insert(node->children.begin() + c + 1,
                            std::move(child_split->right));
    }
  }
  if (node->keys.size() <= max_keys) return nullptr;
  return std::make_unique<SplitResult>(SplitNode(node));
}

/// Rewrites `node`'s separators from its children's actual minima. Borrow
/// and merge shuffle subtree boundaries, and erase can remove the entry a
/// separator was copied from; recomputing keeps the invariant "keys[i] ==
/// smallest entry under children[i + 1]" exact at every level.
void RefreshSeparators(Node* node) {
  if (node->leaf) return;
  for (size_t i = 0; i < node->keys.size(); ++i) {
    node->keys[i] = node->children[i + 1]->MinEntry();
  }
}

/// Rebalances `parent->children[c]` after an underflow: borrow from an
/// adjacent sibling when it can spare an entry, else merge with one.
/// The modified child's separators are recomputed before returning: a
/// borrowed or merged-in separator is taken from the parent, and when the
/// erased entry was the minimum of the child's subtree that parent copy is
/// itself stale at this point (the caller refreshes the parent only after
/// this returns).
void Rebalance(Node* parent, size_t c, size_t max_keys) {
  Node* node = parent->children[c].get();
  Node* left = c > 0 ? parent->children[c - 1].get() : nullptr;
  Node* right =
      c + 1 < parent->children.size() ? parent->children[c + 1].get() : nullptr;

  if (left != nullptr && left->keys.size() > MinKeys(max_keys)) {
    // Borrow the left sibling's last entry/child.
    if (node->leaf) {
      node->keys.insert(node->keys.begin(), std::move(left->keys.back()));
      left->keys.pop_back();
    } else {
      node->keys.insert(node->keys.begin(), std::move(parent->keys[c - 1]));
      node->children.insert(node->children.begin(),
                            std::move(left->children.back()));
      left->children.pop_back();
      left->keys.pop_back();
      RefreshSeparators(node);
    }
    return;
  }
  if (right != nullptr && right->keys.size() > MinKeys(max_keys)) {
    // Borrow the right sibling's first entry/child.
    if (node->leaf) {
      node->keys.push_back(std::move(right->keys.front()));
      right->keys.erase(right->keys.begin());
    } else {
      node->keys.push_back(std::move(parent->keys[c]));
      node->children.push_back(std::move(right->children.front()));
      right->children.erase(right->children.begin());
      right->keys.erase(right->keys.begin());
      RefreshSeparators(node);
    }
    return;
  }

  // Merge with a sibling (into the left node of the pair).
  const size_t li = left != nullptr ? c - 1 : c;
  Node* dst = parent->children[li].get();
  Node* src = parent->children[li + 1].get();
  if (dst->leaf) {
    dst->keys.insert(dst->keys.end(),
                     std::make_move_iterator(src->keys.begin()),
                     std::make_move_iterator(src->keys.end()));
    dst->next = src->next;
  } else {
    dst->keys.push_back(std::move(parent->keys[li]));
    dst->keys.insert(dst->keys.end(),
                     std::make_move_iterator(src->keys.begin()),
                     std::make_move_iterator(src->keys.end()));
    for (auto& ch : src->children) dst->children.push_back(std::move(ch));
    RefreshSeparators(dst);
  }
  parent->keys.erase(parent->keys.begin() + li);
  parent->children.erase(parent->children.begin() + li + 1);
}

/// Removes `k` under `node`; returns whether an entry was removed.
bool EraseRec(Node* node, const EntryKey& k, size_t max_keys) {
  if (node->leaf) {
    const size_t slot = node->LeafLowerBound(k);
    if (slot >= node->keys.size() || CompareEntry(node->keys[slot], k) != 0) {
      return false;
    }
    node->keys.erase(node->keys.begin() + slot);
    return true;
  }
  const size_t c = node->ChildIndex(k);
  Node* child = node->children[c].get();
  if (!EraseRec(child, k, max_keys)) return false;
  if (child->keys.size() < MinKeys(max_keys)) Rebalance(node, c, max_keys);
  RefreshSeparators(node);
  return true;
}

bool CheckNode(const Node* node, const Node* root, size_t max_keys,
               size_t* entries, std::vector<const Node*>* leaves) {
  const size_t min_keys =
      node == root ? (node->leaf ? 0 : 1) : MinKeys(max_keys);
  if (node->keys.size() > max_keys || node->keys.size() < min_keys) {
    return false;
  }
  for (size_t i = 1; i < node->keys.size(); ++i) {
    if (CompareEntry(node->keys[i - 1], node->keys[i]) >= 0) return false;
  }
  if (node->leaf) {
    if (!node->children.empty()) return false;
    *entries += node->keys.size();
    leaves->push_back(node);
    return true;
  }
  if (node->children.size() != node->keys.size() + 1) return false;
  for (size_t i = 0; i < node->children.size(); ++i) {
    const Node* child = node->children[i].get();
    if (!CheckNode(child, root, max_keys, entries, leaves)) return false;
    if (i > 0 && CompareEntry(node->keys[i - 1], child->MinEntry()) != 0) {
      return false;
    }
    if (i < node->keys.size() && !child->keys.empty() &&
        CompareEntry(child->keys.back(), node->keys[i]) >= 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

BPlusTree::BPlusTree(size_t max_keys)
    : root_(std::make_unique<Node>()),
      max_keys_(std::max<size_t>(max_keys, 2)) {}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

BPlusTree BPlusTree::Build(const storage::Table& table, size_t col,
                           size_t max_keys) {
  BPlusTree tree(max_keys);
  // Bulk path: sort entries once, then insert in order — every insert lands
  // in the rightmost leaf, and the result is identical to element-wise
  // insertion in any order (the structure is input-order independent only
  // in content; sorted insertion just makes the build predictable and
  // cache-friendly).
  std::vector<EntryKey> entries;
  entries.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Value& v = table.row(i)[col];
    if (!v.is_null()) entries.push_back(EntryKey{v, i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const EntryKey& a, const EntryKey& b) {
              return CompareEntry(a, b) < 0;
            });
  for (EntryKey& e : entries) tree.Insert(e.key, e.pos);
  return tree;
}

size_t BPlusTree::height() const {
  size_t h = 1;
  const Node* n = root_.get();
  while (!n->leaf) {
    n = n->children.front().get();
    ++h;
  }
  return h;
}

void BPlusTree::Insert(const Value& key, size_t pos) {
  if (key.is_null()) return;
  bool inserted = false;
  std::unique_ptr<SplitResult> split =
      InsertRec(root_.get(), EntryKey{key, pos}, max_keys_, &inserted);
  if (split != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys.push_back(std::move(split->separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  if (inserted) ++size_;
}

bool BPlusTree::Erase(const Value& key, size_t pos) {
  if (key.is_null()) return false;
  if (!EraseRec(root_.get(), EntryKey{key, pos}, max_keys_)) return false;
  --size_;
  // Shrink the root while it holds a single child.
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children.front());
  }
  return true;
}

// ---- Iteration ----

const Value& BPlusTree::Iterator::key() const {
  return static_cast<const Node*>(leaf_)->keys[idx_].key;
}

size_t BPlusTree::Iterator::pos() const {
  return static_cast<const Node*>(leaf_)->keys[idx_].pos;
}

BPlusTree::Iterator& BPlusTree::Iterator::operator++() {
  const Node* leaf = static_cast<const Node*>(leaf_);
  if (++idx_ >= leaf->keys.size()) {
    // Non-root leaves are never empty, so one hop suffices.
    leaf_ = leaf->next;
    idx_ = 0;
  }
  return *this;
}

BPlusTree::Iterator BPlusTree::Begin() const {
  Iterator it;
  const Node* n = root_.get();
  while (!n->leaf) n = n->children.front().get();
  if (!n->keys.empty()) it.leaf_ = n;
  return it;
}

BPlusTree::Iterator BPlusTree::Seek(const Value& v, bool inclusive) const {
  Iterator it;
  if (v.is_null()) return Begin();
  // (v, 0) is <= every entry with key v, so LeafLowerBound lands on the
  // first occurrence of v (or the first larger key).
  const EntryKey k{v, 0};
  const Node* n = root_.get();
  while (!n->leaf) n = n->children[n->ChildIndex(k)].get();
  size_t slot = n->LeafLowerBound(k);
  if (slot >= n->keys.size()) {
    n = n->next;
    slot = 0;
  }
  if (n == nullptr) return it;
  it.leaf_ = n;
  it.idx_ = slot;
  if (!inclusive) {
    while (it.valid() && it.key().Compare(v) == 0) ++it;
  }
  return it;
}

BPlusTree::Iterator BPlusTree::SeekRange(const RangeBounds& bounds) const {
  return bounds.has_lo ? Seek(bounds.lo, bounds.lo_inclusive) : Begin();
}

std::vector<size_t> BPlusTree::RangePositions(const RangeBounds& bounds) const {
  std::vector<size_t> out;
  for (Iterator it = SeekRange(bounds); it.valid(); ++it) {
    if (!bounds.Contains(it.key())) break;
    out.push_back(it.pos());
  }
  return out;
}

bool BPlusTree::CheckInvariants() const {
  size_t entries = 0;
  std::vector<const Node*> leaves;
  if (!CheckNode(root_.get(), root_.get(), max_keys_, &entries, &leaves)) {
    return false;
  }
  if (entries != size_) return false;
  // The leaf chain visits exactly the leaves, left to right.
  const Node* n = root_.get();
  while (!n->leaf) n = n->children.front().get();
  size_t i = 0;
  for (; n != nullptr; n = n->next, ++i) {
    if (i >= leaves.size() || leaves[i] != n) return false;
  }
  return i == leaves.size();
}

}  // namespace qp::index
