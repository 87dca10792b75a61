#include "apps/btree.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace apps {

struct BPlusTree::Node {
  bool leaf = true;
  std::vector<Key> keys;
  std::vector<Value> values;       // leaves only, parallel to keys
  std::vector<Node*> children;     // internal only, keys.size() + 1
  Node* next = nullptr;            // leaf chain
};

struct BPlusTree::InsertResult {
  Node* new_sibling = nullptr;  // set when the child split
  Key separator = 0;
};

BPlusTree::BPlusTree(std::size_t order) : order_(order), root_(new Node()) {
  if (order_ < 4) {
    throw std::invalid_argument("BPlusTree: order must be >= 4");
  }
}

BPlusTree::~BPlusTree() { free_tree(root_); }

void BPlusTree::free_tree(Node* node) {
  if (!node->leaf) {
    for (Node* c : node->children) {
      free_tree(c);
    }
  }
  delete node;
}

const BPlusTree::Node* BPlusTree::find_leaf(Key key, BtreeOpStats* stats) const {
  const Node* node = root_;
  while (!node->leaf) {
    if (stats) {
      ++stats->nodes_visited;
    }
    const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    node = node->children[static_cast<std::size_t>(it - node->keys.begin())];
  }
  if (stats) {
    ++stats->nodes_visited;
  }
  return node;
}

std::optional<BPlusTree::Value> BPlusTree::find(Key key,
                                                BtreeOpStats* stats) const {
  const Node* leaf = find_leaf(key, stats);
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it != leaf->keys.end() && *it == key) {
    return leaf->values[static_cast<std::size_t>(it - leaf->keys.begin())];
  }
  return std::nullopt;
}

BPlusTree::InsertResult BPlusTree::insert_rec(Node* node, Key key,
                                              Value&& value,
                                              BtreeOpStats& stats) {
  ++stats.nodes_visited;
  if (node->leaf) {
    const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    const auto idx = static_cast<std::size_t>(it - node->keys.begin());
    if (it != node->keys.end() && *it == key) {
      node->values[idx] = std::move(value);  // overwrite
      return {};
    }
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + static_cast<std::ptrdiff_t>(idx),
                        std::move(value));
    ++size_;
    if (node->keys.size() < order_) {
      return {};
    }
    // Split the leaf.
    stats.splits = true;
    Node* sibling = new Node();
    const std::size_t mid = node->keys.size() / 2;
    sibling->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(mid),
                         node->keys.end());
    sibling->values.assign(
        std::make_move_iterator(node->values.begin() +
                                static_cast<std::ptrdiff_t>(mid)),
        std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
    sibling->next = node->next;
    node->next = sibling;
    return {sibling, sibling->keys.front()};
  }

  const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
  const auto child_idx = static_cast<std::size_t>(it - node->keys.begin());
  const InsertResult child_result =
      insert_rec(node->children[child_idx], key, std::move(value), stats);
  if (child_result.new_sibling == nullptr) {
    return {};
  }
  node->keys.insert(node->keys.begin() + static_cast<std::ptrdiff_t>(child_idx),
                    child_result.separator);
  node->children.insert(
      node->children.begin() + static_cast<std::ptrdiff_t>(child_idx) + 1,
      child_result.new_sibling);
  if (node->keys.size() < order_) {
    return {};
  }
  // Split the internal node; the middle key moves up.
  stats.splits = true;
  Node* sibling = new Node();
  sibling->leaf = false;
  const std::size_t mid = node->keys.size() / 2;
  const Key up_key = node->keys[mid];
  sibling->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                       node->keys.end());
  sibling->children.assign(
      node->children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
      node->children.end());
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return {sibling, up_key};
}

BtreeOpStats BPlusTree::insert(Key key, Value value) {
  BtreeOpStats stats;
  const InsertResult result = insert_rec(root_, key, std::move(value), stats);
  if (result.new_sibling != nullptr) {
    Node* new_root = new Node();
    new_root->leaf = false;
    new_root->keys.push_back(result.separator);
    new_root->children.push_back(root_);
    new_root->children.push_back(result.new_sibling);
    root_ = new_root;
    ++height_;
  }
  return stats;
}

bool BPlusTree::erase(Key key, BtreeOpStats* stats) {
  Node* node = root_;
  while (!node->leaf) {
    if (stats) {
      ++stats->nodes_visited;
    }
    const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    node = node->children[static_cast<std::size_t>(it - node->keys.begin())];
  }
  if (stats) {
    ++stats->nodes_visited;
  }
  const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it == node->keys.end() || *it != key) {
    return false;
  }
  const auto idx = static_cast<std::size_t>(it - node->keys.begin());
  node->keys.erase(it);
  node->values.erase(node->values.begin() + static_cast<std::ptrdiff_t>(idx));
  --size_;
  return true;
}

std::size_t BPlusTree::scan(
    Key first, Key last,
    const std::function<bool(Key, const Value&)>& fn) const {
  const Node* leaf = find_leaf(first, nullptr);
  std::size_t visited = 0;
  while (leaf != nullptr) {
    for (std::size_t i = 0; i < leaf->keys.size(); ++i) {
      if (leaf->keys[i] < first) {
        continue;
      }
      if (leaf->keys[i] > last) {
        return visited;
      }
      ++visited;
      if (!fn(leaf->keys[i], leaf->values[i])) {
        return visited;
      }
    }
    leaf = leaf->next;
  }
  return visited;
}

void BPlusTree::check_node(const Node* node, Key* last_key, std::uint32_t depth,
                           std::uint32_t leaf_depth) const {
  if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
    throw std::logic_error("BPlusTree: unsorted keys in node");
  }
  if (node->keys.size() >= order_) {
    throw std::logic_error("BPlusTree: overfull node");
  }
  if (node->leaf) {
    if (depth != leaf_depth) {
      throw std::logic_error("BPlusTree: leaves at different depths");
    }
    if (node->keys.size() != node->values.size()) {
      throw std::logic_error("BPlusTree: key/value arity mismatch");
    }
    for (const Key k : node->keys) {
      if (last_key != nullptr) {
        if (k <= *last_key) {
          throw std::logic_error("BPlusTree: global key order violated");
        }
        *last_key = k;
      }
    }
    return;
  }
  if (node->children.size() != node->keys.size() + 1) {
    throw std::logic_error("BPlusTree: internal child arity mismatch");
  }
  for (const Node* c : node->children) {
    check_node(c, last_key, depth + 1, leaf_depth);
  }
}

void BPlusTree::check_invariants() const {
  Key last = std::numeric_limits<Key>::min();
  check_node(root_, &last, 1, height_);
}

}  // namespace apps
