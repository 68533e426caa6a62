//! Offline stand-in for `serde_derive`, written against the in-repo
//! `serde` shim (see `shims/serde`). The container image has no crates.io
//! access, so this derive is hand-rolled on `proc_macro` alone — no
//! `syn`/`quote`. It supports exactly the shapes this workspace uses:
//! non-generic structs (named, tuple, unit) and enums whose variants are
//! unit, tuple, or struct-like. The one `#[serde(...)]` attribute it
//! knows is `#[serde(skip)]` on a field of a named struct: the field is
//! not serialized and deserializes to `Default::default()`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the deriving type.
enum TypeDef {
    NamedStruct {
        name: String,
        fields: Vec<String>,
        /// `#[serde(skip)]` fields: never stored, defaulted on load.
        skipped: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<(String, VariantShape)>,
    },
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Derives `serde::Serialize` (shim data model: `to_json_value`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = parse_type_def(input);
    gen_serialize(&def)
        .parse()
        .expect("serde_derive shim: generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` (shim data model: `from_json_value`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let def = parse_type_def(input);
    gen_deserialize(&def)
        .parse()
        .expect("serde_derive shim: generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_type_def(input: TokenStream) -> TypeDef {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    no_skip_here(skip_attrs(&tokens, &mut i));
    skip_vis(&tokens, &mut i);
    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic types ({name})");
    }
    match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let mut skipped = Vec::new();
                let fields = parse_named_fields(g.stream(), Some(&mut skipped));
                TypeDef::NamedStruct {
                    name,
                    fields,
                    skipped,
                }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                TypeDef::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                }
            }
            _ => TypeDef::UnitStruct { name },
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => TypeDef::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            _ => panic!("serde shim derive: malformed enum {name}"),
        },
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    }
}

/// Advances past any attributes; returns whether `#[serde(skip)]` was
/// one of them.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut serde_skip = false;
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        *i += 1; // '#'
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Bracket {
                let text: String = g.stream().to_string().split_whitespace().collect();
                if text == "serde(skip)" {
                    serde_skip = true;
                } else if text.starts_with("serde(") {
                    panic!("serde shim derive: unsupported attribute #[{text}]");
                }
                *i += 1; // [...]
            }
        }
    }
    serde_skip
}

/// `#[serde(skip)]` is honoured on named-struct fields only.
fn no_skip_here(serde_skip: bool) {
    assert!(
        !serde_skip,
        "serde shim derive: #[serde(skip)] is supported on named struct fields only"
    );
}

fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1; // pub(crate) / pub(super)
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: expected identifier, found {other:?}"),
    }
}

/// Advances past one type, stopping at a top-level `,` (angle-bracket aware:
/// commas inside `Foo<A, B>` are plain puncts and must not split fields).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Field names in declaration order; `#[serde(skip)]` fields go to
/// `skipped` instead (struct variants, which pass `None`, have none).
fn parse_named_fields(stream: TokenStream, mut skipped: Option<&mut Vec<String>>) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let skip = skip_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let field = expect_ident(&tokens, &mut i);
        match (skip, skipped.as_deref_mut()) {
            (false, _) => fields.push(field),
            (true, Some(skipped)) => skipped.push(field),
            (true, None) => panic!("serde shim derive: #[serde(skip)] on a variant field"),
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut arity = 0;
    let mut i = 0;
    while i < tokens.len() {
        no_skip_here(skip_attrs(&tokens, &mut i));
        skip_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut i);
        arity += 1;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<(String, VariantShape)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        no_skip_here(skip_attrs(&tokens, &mut i));
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_named_fields(g.stream(), None))
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) if present.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            skip_type(&tokens, &mut i);
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push((name, shape));
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(def: &TypeDef) -> String {
    let (name, body) = match def {
        TypeDef::NamedStruct { name, fields, .. } => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_json_value(&self.{f}))")
                })
                .collect();
            (
                name,
                format!("::serde::Value::Object(vec![{}])", pairs.join(", ")),
            )
        }
        TypeDef::TupleStruct { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_json_value(&self.{k})"))
                .collect();
            if *arity == 1 {
                (name, items.into_iter().next().unwrap())
            } else {
                (
                    name,
                    format!("::serde::Value::Array(vec![{}])", items.join(", ")),
                )
            }
        }
        TypeDef::UnitStruct { name } => (name, "::serde::Value::Null".to_string()),
        TypeDef::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, shape)| match shape {
                    VariantShape::Unit => format!(
                        "{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),"
                    ),
                    VariantShape::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|k| format!("__f{k}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_json_value({b})"))
                            .collect();
                        let payload = if *arity == 1 {
                            items[0].clone()
                        } else {
                            format!("::serde::Value::Array(vec![{}])", items.join(", "))
                        };
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(vec![(\"{v}\".to_string(), {payload})]),",
                            binds.join(", ")
                        )
                    }
                    VariantShape::Struct(fields) => {
                        let binds = fields.join(", ");
                        let pairs: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(\"{f}\".to_string(), ::serde::Serialize::to_json_value({f}))"
                                )
                            })
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Value::Object(vec![{}]))]),",
                            pairs.join(", ")
                        )
                    }
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join(" ")))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_json_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(def: &TypeDef) -> String {
    let (name, body) = match def {
        TypeDef::NamedStruct {
            name,
            fields,
            skipped,
        } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("{f}: ::serde::Deserialize::from_json_value(__v.field(\"{f}\")?)?")
                })
                .chain(
                    skipped
                        .iter()
                        .map(|f| format!("{f}: ::std::default::Default::default()")),
                )
                .collect();
            (name, format!("Ok({name} {{ {} }})", inits.join(", ")))
        }
        TypeDef::TupleStruct { name, arity } => {
            let inits: Vec<String> = if *arity == 1 {
                vec!["::serde::Deserialize::from_json_value(__v)?".to_string()]
            } else {
                (0..*arity)
                    .map(|k| format!("::serde::Deserialize::from_json_value(__v.index({k})?)?"))
                    .collect()
            };
            (name, format!("Ok({name}({}))", inits.join(", ")))
        }
        TypeDef::UnitStruct { name } => (name, format!("Ok({name})")),
        TypeDef::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, s)| matches!(s, VariantShape::Unit))
                .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),"))
                .collect();
            let payload_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, shape)| match shape {
                    VariantShape::Unit => None,
                    VariantShape::Tuple(arity) => {
                        let inits: Vec<String> = if *arity == 1 {
                            vec!["::serde::Deserialize::from_json_value(__pv)?".to_string()]
                        } else {
                            (0..*arity)
                                .map(|k| {
                                    format!(
                                        "::serde::Deserialize::from_json_value(__pv.index({k})?)?"
                                    )
                                })
                                .collect()
                        };
                        Some(format!("\"{v}\" => Ok({name}::{v}({})),", inits.join(", ")))
                    }
                    VariantShape::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_json_value(__pv.field(\"{f}\")?)?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => Ok({name}::{v} {{ {} }}),",
                            inits.join(", ")
                        ))
                    }
                })
                .collect();
            let body = format!(
                "match __v {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit}\n\
                         __other => Err(::serde::Error::custom(format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                     }},\n\
                     ::serde::Value::Object(__pairs) if __pairs.len() == 1 => {{\n\
                         let (__k, __pv) = &__pairs[0];\n\
                         match __k.as_str() {{\n\
                             {payload}\n\
                             __other => Err(::serde::Error::custom(format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                         }}\n\
                     }}\n\
                     _ => Err(::serde::Error::custom(\"expected string or single-key object for enum {name}\")),\n\
                 }}",
                unit = unit_arms.join("\n"),
                payload = payload_arms.join("\n"),
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             #[allow(unused_variables)]\n\
             fn from_json_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
}
