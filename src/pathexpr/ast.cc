#include "pathexpr/ast.h"

#include <algorithm>

#include "common/logging.h"

namespace dki {

AstPtr AstNode::Label(std::string name) {
  auto n = std::make_unique<AstNode>();
  n->kind = AstKind::kLabel;
  n->label = std::move(name);
  return n;
}

AstPtr AstNode::Wildcard() {
  auto n = std::make_unique<AstNode>();
  n->kind = AstKind::kWildcard;
  return n;
}

namespace {
AstPtr Binary(AstKind kind, AstPtr l, AstPtr r) {
  DKI_CHECK(l != nullptr);
  DKI_CHECK(r != nullptr);
  auto n = std::make_unique<AstNode>();
  n->kind = kind;
  n->left = std::move(l);
  n->right = std::move(r);
  return n;
}

AstPtr Unary(AstKind kind, AstPtr child) {
  DKI_CHECK(child != nullptr);
  auto n = std::make_unique<AstNode>();
  n->kind = kind;
  n->left = std::move(child);
  return n;
}
}  // namespace

AstPtr AstNode::Seq(AstPtr l, AstPtr r) {
  return Binary(AstKind::kSeq, std::move(l), std::move(r));
}
AstPtr AstNode::Alt(AstPtr l, AstPtr r) {
  return Binary(AstKind::kAlt, std::move(l), std::move(r));
}
AstPtr AstNode::Star(AstPtr child) {
  return Unary(AstKind::kStar, std::move(child));
}
AstPtr AstNode::Plus(AstPtr child) {
  return Unary(AstKind::kPlus, std::move(child));
}
AstPtr AstNode::Opt(AstPtr child) {
  return Unary(AstKind::kOpt, std::move(child));
}

namespace {

// "(left<op>right)", built by appending: GCC 12 at -O3 reports a bogus
// -Wrestrict overlap for `"(" + std::string&&`.
std::string BinaryToString(const AstNode& node, char op) {
  std::string out = "(";
  out += AstToString(*node.left);
  out += op;
  out += AstToString(*node.right);
  out += ')';
  return out;
}

}  // namespace

std::string AstToString(const AstNode& node) {
  switch (node.kind) {
    case AstKind::kLabel:
      return node.label;
    case AstKind::kWildcard:
      return "_";
    case AstKind::kSeq:
      return BinaryToString(node, '.');
    case AstKind::kAlt:
      return BinaryToString(node, '|');
    case AstKind::kStar:
      return AstToString(*node.left) + "*";
    case AstKind::kPlus:
      return AstToString(*node.left) + "+";
    case AstKind::kOpt:
      return AstToString(*node.left) + "?";
  }
  return "?";
}

bool IsLabelChain(const AstNode& node, std::vector<std::string>* labels) {
  switch (node.kind) {
    case AstKind::kLabel:
      labels->push_back(node.label);
      return true;
    case AstKind::kSeq:
      return IsLabelChain(*node.left, labels) &&
             IsLabelChain(*node.right, labels);
    default:
      return false;
  }
}

namespace {

// Sorted-unique set operations over small label-name vectors.
std::vector<std::string> SetUnion(std::vector<std::string> a,
                                  const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

std::vector<std::string> SetIntersect(const std::vector<std::string>& a,
                                      const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

std::vector<std::string> RequiredLabels(const AstNode& node) {
  switch (node.kind) {
    case AstKind::kLabel:
      return {node.label};
    case AstKind::kWildcard:
      return {};
    case AstKind::kSeq:
      return SetUnion(RequiredLabels(*node.left),
                      RequiredLabels(*node.right));
    case AstKind::kAlt:
      // Only labels required on BOTH branches are required overall.
      return SetIntersect(RequiredLabels(*node.left),
                          RequiredLabels(*node.right));
    case AstKind::kStar:
    case AstKind::kOpt:
      // Zero repetitions are allowed, so nothing inside is required.
      return {};
    case AstKind::kPlus:
      return RequiredLabels(*node.left);
  }
  return {};
}

}  // namespace dki
