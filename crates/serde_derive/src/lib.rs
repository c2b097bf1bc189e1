//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! The registry is unreachable in this build environment, so there is no
//! `syn`/`quote`; the derive input is parsed directly from
//! [`proc_macro::TokenStream`] and the impls are emitted as formatted
//! source text. Supported input shapes (everything this workspace derives):
//!
//! - non-generic structs: named fields, tuple/newtype, unit;
//! - non-generic enums with unit, newtype, tuple and struct variants;
//! - field attributes `#[serde(default)]`, `#[serde(default = "path")]`,
//!   `#[serde(skip_default)]`;
//! - container attribute `#[serde(into = "T", from = "T")]`.
//!
//! `Serialize` emits one JSON serializer per type, a `serialize_to` that
//! streams the value into a `serde::Sink`, plus the binary encoder.
//! Anything else (generics, lifetimes, other serde attributes) is a
//! compile-time panic with a pointed message rather than silent
//! miscompilation.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Container-level serde attributes.
#[derive(Default)]
struct ContainerAttrs {
    into: Option<String>,
    from: Option<String>,
}

/// Field-level serde attributes.
#[derive(Default, Clone)]
struct FieldAttrs {
    /// `Some(None)` = `#[serde(default)]`; `Some(Some(p))` = `default = "p"`.
    default: Option<Option<String>>,
    /// `#[serde(skip_default)]`: omit the field from serialized objects
    /// while it holds its type's default value (pair with `default` so the
    /// absent field also reads back). The binary codec ignores this — it
    /// always carries every field.
    skip_default: bool,
}

struct Field {
    name: String,
    attrs: FieldAttrs,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Kind {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    attrs: ContainerAttrs,
    kind: Kind,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let src = format!("{}{}", gen_serialize(&input), gen_bin_serialize(&input));
    src.parse().expect("serde_derive: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    let src = format!("{}{}", gen_deserialize(&input), gen_bin_deserialize(&input));
    src.parse().expect("serde_derive: generated invalid Deserialize impl")
}

// ------------------------------------------------------------------ parsing

fn parse_input(stream: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;

    let mut attrs = ContainerAttrs::default();
    for serde_attr in parse_attrs(&tokens, &mut pos) {
        apply_container_attr(&mut attrs, &serde_attr);
    }
    skip_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive: generic type `{name}` is not supported");
    }

    let kind = match keyword.as_str() {
        "struct" => Kind::Struct(parse_struct_body(&tokens, &mut pos)),
        "enum" => Kind::Enum(parse_enum_body(&tokens, &mut pos)),
        other => panic!("serde_derive: cannot derive for `{other} {name}`"),
    };
    Input { name, attrs, kind }
}

/// Collects the payloads of `#[serde(...)]` attributes at `pos`, skipping
/// every other attribute (doc comments arrive as `#[doc = "..."]`).
fn parse_attrs(tokens: &[TokenTree], pos: &mut usize) -> Vec<TokenStream> {
    let mut found = Vec::new();
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                let TokenTree::Group(g) = &tokens[*pos + 1] else {
                    panic!("serde_derive: malformed attribute");
                };
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
                    (inner.first(), inner.get(1))
                {
                    if id.to_string() == "serde" {
                        found.push(args.stream());
                    }
                }
                *pos += 2;
            }
            _ => return found,
        }
    }
}

fn apply_container_attr(attrs: &mut ContainerAttrs, stream: &TokenStream) {
    let items: Vec<TokenTree> = stream.clone().into_iter().collect();
    let mut i = 0;
    while i < items.len() {
        let TokenTree::Ident(key) = &items[i] else {
            panic!("serde_derive: malformed #[serde(...)] attribute");
        };
        let key = key.to_string();
        let value = match items.get(i + 1) {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                let TokenTree::Literal(lit) = &items[i + 2] else {
                    panic!("serde_derive: #[serde({key} = ...)] expects a string literal");
                };
                i += 3;
                Some(unquote(&lit.to_string()))
            }
            _ => {
                i += 1;
                None
            }
        };
        match (key.as_str(), value) {
            ("into", Some(ty)) => attrs.into = Some(ty),
            ("from", Some(ty)) => attrs.from = Some(ty),
            (other, _) => {
                panic!("serde_derive: unsupported container attribute #[serde({other})]")
            }
        }
        if matches!(items.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
}

fn parse_field_attr(attrs: &mut FieldAttrs, stream: &TokenStream) {
    let items: Vec<TokenTree> = stream.clone().into_iter().collect();
    let mut i = 0;
    while i < items.len() {
        let TokenTree::Ident(key) = &items[i] else {
            panic!("serde_derive: malformed #[serde(...)] attribute");
        };
        let key = key.to_string();
        let value = match items.get(i + 1) {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                let TokenTree::Literal(lit) = &items[i + 2] else {
                    panic!("serde_derive: #[serde({key} = ...)] expects a string literal");
                };
                i += 3;
                Some(unquote(&lit.to_string()))
            }
            _ => {
                i += 1;
                None
            }
        };
        match (key.as_str(), value) {
            ("default", value) => attrs.default = Some(value),
            ("skip_default", None) => attrs.skip_default = true,
            (other, _) => panic!("serde_derive: unsupported field attribute #[serde({other})]"),
        }
        if matches!(items.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
}

fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(id)) => {
            *pos += 1;
            id.to_string()
        }
        other => panic!("serde_derive: expected identifier, found {other:?}"),
    }
}

fn parse_struct_body(tokens: &[TokenTree], pos: &mut usize) -> Shape {
    match tokens.get(*pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(count_tuple_fields(g.stream()))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
        other => panic!("serde_derive: malformed struct body at {other:?}"),
    }
}

/// Parses `name: Type, ...` field lists. Types are skipped (the generated
/// code never names them: serialization is trait-dispatched and
/// deserialization relies on inference from the struct literal).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let mut attrs = FieldAttrs::default();
        for serde_attr in parse_attrs(&tokens, &mut pos) {
            parse_field_attr(&mut attrs, &serde_attr);
        }
        skip_visibility(&tokens, &mut pos);
        let name = expect_ident(&tokens, &mut pos);
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => panic!("serde_derive: expected `:` after field `{name}`, found {other:?}"),
        }
        skip_type(&tokens, &mut pos);
        fields.push(Field { name, attrs });
    }
    fields
}

/// Advances past one type, stopping at a top-level `,` (consumed) or the
/// end. Tracks `<`/`>` nesting; parens and brackets arrive as single
/// groups so they need no special casing.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut depth = 0i32;
    while let Some(tok) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    *pos += 1;
                    return;
                }
                _ => {}
            }
        }
        *pos += 1;
    }
}

/// Counts the fields of a tuple struct/variant body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        for serde_attr in parse_attrs(&tokens, &mut pos) {
            let _ = serde_attr; // no field attrs used on tuple fields
        }
        skip_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut pos);
        count += 1;
    }
    count
}

fn parse_enum_body(tokens: &[TokenTree], pos: &mut usize) -> Vec<Variant> {
    let Some(TokenTree::Group(g)) = tokens.get(*pos) else {
        panic!("serde_derive: malformed enum body");
    };
    assert_eq!(g.delimiter(), Delimiter::Brace, "serde_derive: malformed enum body");
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        // Variant-level serde attrs are unsupported; parse_attrs still
        // skips doc comments and cfg_attr-free attributes.
        let serde_attrs = parse_attrs(&tokens, &mut pos);
        if !serde_attrs.is_empty() {
            panic!("serde_derive: variant-level #[serde(...)] attributes are not supported");
        }
        let name = expect_ident(&tokens, &mut pos);
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            panic!("serde_derive: explicit enum discriminants are not supported");
        }
        if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            pos += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ------------------------------------------------------------------ codegen

const IMPL_HEADER: &str = "#[automatically_derived]\n#[allow(warnings, clippy::all)]\n";

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = if let Some(into) = &input.attrs.into {
        format!(
            "let __repr: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             ::serde::Serialize::serialize_to(&__repr, __s);"
        )
    } else {
        match &input.kind {
            Kind::Struct(shape) => gen_serialize_shape(shape, |f| format!("&self.{f}")),
            Kind::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        let vn = &v.name;
                        let (pattern, payload) = match &v.shape {
                            Shape::Unit => {
                                return format!(
                                    "{name}::{vn} => ::serde::Sink::str(__s, \"{vn}\"),\n"
                                );
                            }
                            Shape::Tuple(n) => {
                                let binds: Vec<String> =
                                    (0..*n).map(|i| format!("__x{i}")).collect();
                                (
                                    format!("({})", binds.join(", ")),
                                    gen_serialize_shape(&v.shape, |i| format!("__x{i}")),
                                )
                            }
                            Shape::Named(fields) => {
                                let binds: Vec<&str> =
                                    fields.iter().map(|f| f.name.as_str()).collect();
                                (
                                    format!(" {{ {} }}", binds.join(", ")),
                                    gen_serialize_shape(&v.shape, str::to_string),
                                )
                            }
                        };
                        format!(
                            "{name}::{vn}{pattern} => {{\n\
                             ::serde::Sink::begin_object(__s);\n\
                             ::serde::Sink::key(__s, \"{vn}\");\n\
                             {payload}\
                             ::serde::Sink::end_object(__s);\n}}\n"
                        )
                    })
                    .collect();
                format!("match self {{\n{arms}}}")
            }
        }
    };
    format!(
        "{IMPL_HEADER}impl ::serde::Serialize for {name} {{\n\
         fn serialize_to<__S: ::serde::Sink>(&self, __s: &mut __S) {{\n{body}\n}}\n}}\n"
    )
}

/// Statements streaming one struct or variant body into `__s`; `access`
/// turns a field's name (or tuple index) into a reference to it.
/// Newtypes are transparent, tuples are arrays, named fields an object
/// (a `skip_default` field only while it is off its default), a unit
/// struct `null`.
fn gen_serialize_shape(shape: &Shape, access: impl Fn(&str) -> String) -> String {
    let write =
        |field: &str| format!("::serde::Serialize::serialize_to({}, __s);\n", access(field));
    match shape {
        Shape::Unit => "::serde::Sink::null(__s);\n".to_string(),
        Shape::Tuple(1) => write("0"),
        Shape::Tuple(n) => {
            let items: String = (0..*n).map(|i| write(&i.to_string())).collect();
            format!("::serde::Sink::begin_array(__s);\n{items}::serde::Sink::end_array(__s);\n")
        }
        Shape::Named(fields) => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    let (fname, x) = (&f.name, access(&f.name));
                    let entry = format!("::serde::Sink::field(__s, \"{fname}\", {x});\n");
                    if f.attrs.skip_default {
                        format!("if !::serde::is_default({x}) {{ {entry} }}\n")
                    } else {
                        entry
                    }
                })
                .collect();
            format!("::serde::Sink::begin_object(__s);\n{entries}::serde::Sink::end_object(__s);\n")
        }
    }
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = if let Some(from) = &input.attrs.from {
        format!(
            "let __repr: {from} = ::serde::Deserialize::deserialize(__v)?;\n\
             ::std::result::Result::Ok(::core::convert::From::from(__repr))"
        )
    } else {
        match &input.kind {
            Kind::Struct(Shape::Unit) => {
                format!("::std::result::Result::Ok({name})")
            }
            Kind::Struct(Shape::Tuple(1)) => {
                format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))"
                )
            }
            Kind::Struct(Shape::Tuple(n)) => {
                let items = (0..*n)
                    .map(|i| format!("::serde::Deserialize::deserialize(&__items[{i}])?"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "match __v {{\n\
                     ::serde::Value::Array(__items) if __items.len() == {n} => \
                     ::std::result::Result::Ok({name}({items})),\n\
                     __other => ::serde::unexpected(\"{name}\", \"array of {n}\", __other),\n}}"
                )
            }
            Kind::Struct(Shape::Named(fields)) => {
                let inits = gen_named_field_inits(name, fields);
                format!(
                    "match __v {{\n\
                     ::serde::Value::Object(__fields) => ::std::result::Result::Ok({name} {{ {inits} }}),\n\
                     __other => ::serde::unexpected(\"{name}\", \"object\", __other),\n}}"
                )
            }
            Kind::Enum(variants) => gen_deserialize_enum(name, variants),
        }
    };
    format!(
        "{IMPL_HEADER}impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__v: &::serde::Value) -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
         {body}\n}}\n}}\n"
    )
}

/// `field: <lookup-or-default>` initializers against a `__fields` slice.
fn gen_named_field_inits(ty: &str, fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| {
            let fname = &f.name;
            let on_missing = match &f.attrs.default {
                None => format!("return ::serde::missing_field(\"{ty}\", \"{fname}\")"),
                Some(None) => "::core::default::Default::default()".to_string(),
                Some(Some(path)) => format!("{path}()"),
            };
            format!(
                "{fname}: match ::serde::obj_get(__fields, \"{fname}\") {{\n\
                 ::std::option::Option::Some(__x) => ::serde::Deserialize::deserialize(__x)?,\n\
                 ::std::option::Option::None => {on_missing},\n}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

// ------------------------------------------------------- binary codegen
//
// The positional binary codec (`serde::BinSerialize` / `BinDeserialize`):
// struct fields and enum payloads travel in declaration order with no
// names; enums are a u32 variant index in declaration order. Field-level
// `#[serde(default)]` is irrelevant here — the binary format always
// carries every field — and `into`/`from` convert through the repr type
// exactly like the `Value` path.

fn gen_bin_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = if let Some(into) = &input.attrs.into {
        format!(
            "let __repr: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             ::serde::BinSerialize::bin_serialize(&__repr, __out)"
        )
    } else {
        match &input.kind {
            Kind::Struct(Shape::Unit) => "let _ = __out;".to_string(),
            Kind::Struct(Shape::Tuple(n)) => (0..*n)
                .map(|i| format!("::serde::BinSerialize::bin_serialize(&self.{i}, __out);\n"))
                .collect(),
            Kind::Struct(Shape::Named(fields)) => fields
                .iter()
                .map(|f| {
                    format!("::serde::BinSerialize::bin_serialize(&self.{}, __out);\n", f.name)
                })
                .collect(),
            Kind::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .enumerate()
                    .map(|(idx, v)| {
                        let vn = &v.name;
                        let tag = format!("__out.extend_from_slice(&{idx}u32.to_le_bytes());\n");
                        match &v.shape {
                            Shape::Unit => format!("{name}::{vn} => {{ {tag} }}\n"),
                            Shape::Tuple(n) => {
                                let binds: Vec<String> =
                                    (0..*n).map(|i| format!("__x{i}")).collect();
                                let writes: String = binds
                                    .iter()
                                    .map(|b| {
                                        format!(
                                            "::serde::BinSerialize::bin_serialize({b}, __out);\n"
                                        )
                                    })
                                    .collect();
                                format!(
                                    "{name}::{vn}({}) => {{ {tag}{writes} }}\n",
                                    binds.join(", ")
                                )
                            }
                            Shape::Named(fields) => {
                                let binds: Vec<&str> =
                                    fields.iter().map(|f| f.name.as_str()).collect();
                                let writes: String = binds
                                    .iter()
                                    .map(|b| {
                                        format!(
                                            "::serde::BinSerialize::bin_serialize({b}, __out);\n"
                                        )
                                    })
                                    .collect();
                                format!(
                                    "{name}::{vn} {{ {} }} => {{ {tag}{writes} }}\n",
                                    binds.join(", ")
                                )
                            }
                        }
                    })
                    .collect();
                format!("match self {{\n{arms}}}")
            }
        }
    };
    format!(
        "{IMPL_HEADER}impl ::serde::BinSerialize for {name} {{\n\
         #[inline]\n\
         fn bin_serialize(&self, __out: &mut ::std::vec::Vec<u8>) {{\n{body}\n}}\n}}\n"
    )
}

fn gen_bin_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = if let Some(from) = &input.attrs.from {
        format!(
            "let __repr: {from} = ::serde::BinDeserialize::bin_deserialize(__c)?;\n\
             ::std::result::Result::Ok(::core::convert::From::from(__repr))"
        )
    } else {
        match &input.kind {
            Kind::Struct(Shape::Unit) => {
                format!("let _ = __c;\n::std::result::Result::Ok({name})")
            }
            Kind::Struct(Shape::Tuple(n)) => {
                let items = (0..*n)
                    .map(|_| "::serde::BinDeserialize::bin_deserialize(__c)?".to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("::std::result::Result::Ok({name}({items}))")
            }
            Kind::Struct(Shape::Named(fields)) => {
                let inits = fields
                    .iter()
                    .map(|f| format!("{}: ::serde::BinDeserialize::bin_deserialize(__c)?", f.name))
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!("::std::result::Result::Ok({name} {{ {inits} }})")
            }
            Kind::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .enumerate()
                    .map(|(idx, v)| {
                        let vn = &v.name;
                        match &v.shape {
                            Shape::Unit => format!(
                                "{idx}u32 => ::std::result::Result::Ok({name}::{vn}),\n"
                            ),
                            Shape::Tuple(n) => {
                                let items = (0..*n)
                                    .map(|_| {
                                        "::serde::BinDeserialize::bin_deserialize(__c)?".to_string()
                                    })
                                    .collect::<Vec<_>>()
                                    .join(", ");
                                format!(
                                    "{idx}u32 => ::std::result::Result::Ok({name}::{vn}({items})),\n"
                                )
                            }
                            Shape::Named(fields) => {
                                let inits = fields
                                    .iter()
                                    .map(|f| {
                                        format!(
                                            "{}: ::serde::BinDeserialize::bin_deserialize(__c)?",
                                            f.name
                                        )
                                    })
                                    .collect::<Vec<_>>()
                                    .join(",\n");
                                format!(
                                    "{idx}u32 => ::std::result::Result::Ok({name}::{vn} {{ {inits} }}),\n"
                                )
                            }
                        }
                    })
                    .collect();
                format!(
                    "match ::serde::bin_take_u32(__c)? {{\n{arms}\
                     __other => ::serde::bin_bad_variant(\"{name}\", __other),\n}}"
                )
            }
        }
    };
    format!(
        "{IMPL_HEADER}impl ::serde::BinDeserialize for {name} {{\n\
         #[inline]\n\
         fn bin_deserialize(__c: &mut &[u8]) -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
         {body}\n}}\n}}\n"
    )
}

fn gen_deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({name}::{0}),\n", v.name))
        .collect();
    let payload_arms: String = variants
        .iter()
        .filter(|v| !matches!(v.shape, Shape::Unit))
        .map(|v| {
            let vn = &v.name;
            match &v.shape {
                Shape::Unit => unreachable!(),
                Shape::Tuple(1) => format!(
                    "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::deserialize(__val)?)),\n"
                ),
                Shape::Tuple(n) => {
                    let items = (0..*n)
                        .map(|i| format!("::serde::Deserialize::deserialize(&__items[{i}])?"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "\"{vn}\" => match __val {{\n\
                         ::serde::Value::Array(__items) if __items.len() == {n} => \
                         ::std::result::Result::Ok({name}::{vn}({items})),\n\
                         __other => ::serde::unexpected(\"{name}::{vn}\", \"array of {n}\", __other),\n}},\n"
                    )
                }
                Shape::Named(fields) => {
                    let inits = gen_named_field_inits(&format!("{name}::{vn}"), fields);
                    format!(
                        "\"{vn}\" => match __val {{\n\
                         ::serde::Value::Object(__fields) => \
                         ::std::result::Result::Ok({name}::{vn} {{ {inits} }}),\n\
                         __other => ::serde::unexpected(\"{name}::{vn}\", \"object\", __other),\n}},\n"
                    )
                }
            }
        })
        .collect();
    format!(
        "match __v {{\n\
         ::serde::Value::Str(__s) => match __s.as_str() {{\n\
         {unit_arms}\
         __other => ::serde::unknown_variant(\"{name}\", __other),\n}},\n\
         ::serde::Value::Object(__fields) if __fields.len() == 1 => {{\n\
         let (__key, __val) = &__fields[0];\n\
         match __key.as_str() {{\n\
         {payload_arms}\
         __other => ::serde::unknown_variant(\"{name}\", __other),\n}}\n}},\n\
         __other => ::serde::unexpected(\"{name}\", \"string or single-key object\", __other),\n}}"
    )
}
