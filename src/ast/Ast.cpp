//===--- Ast.cpp - AST enum spellings and Value ops -----------------------===//

#include "ast/Ast.h"

#include <cmath>

using namespace sigc;

const char *sigc::typeName(TypeKind K) {
  switch (K) {
  case TypeKind::Unknown:
    return "<unknown>";
  case TypeKind::Event:
    return "event";
  case TypeKind::Boolean:
    return "boolean";
  case TypeKind::Integer:
    return "integer";
  case TypeKind::Real:
    return "real";
  }
  return "<bad>";
}

const char *sigc::unaryOpName(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Not:
    return "not";
  case UnaryOp::Neg:
    return "-";
  case UnaryOp::ToReal:
    return "real";
  }
  return "<bad>";
}

const char *sigc::binaryOpName(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "mod";
  case BinaryOp::And:
    return "and";
  case BinaryOp::Or:
    return "or";
  case BinaryOp::Xor:
    return "xor";
  case BinaryOp::Eq:
    return "=";
  case BinaryOp::Ne:
    return "/=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  }
  return "<bad>";
}

bool sigc::isPredicateOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return true;
  default:
    return false;
  }
}

bool sigc::isLogicalOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::And:
  case BinaryOp::Or:
  case BinaryOp::Xor:
    return true;
  default:
    return false;
  }
}

std::string Value::str() const {
  switch (Kind) {
  case TypeKind::Unknown:
    return "<?>";
  case TypeKind::Event:
    return "tick";
  case TypeKind::Boolean:
    return Bool ? "true" : "false";
  case TypeKind::Integer:
    return std::to_string(Int);
  case TypeKind::Real: {
    std::string S = std::to_string(Real);
    return S;
  }
  }
  return "<bad>";
}
