//! Derive macros for the offline `serde` stand-in.
//!
//! With no crates.io access there is no `syn`/`quote`, so the item is
//! parsed straight off the `proc_macro::TokenStream` and the impl is
//! emitted as source text. The supported shapes are exactly what this
//! workspace derives on: named structs, tuple structs, and enums with
//! unit or struct variants — all without generics. Field attributes
//! `#[serde(rename = "...", default, skip_serializing_if = "...")]` are
//! honoured; anything else is rejected loudly rather than mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    ident: String,
    /// Serialized key: the `rename` value if present, else the ident.
    key: String,
    default: bool,
    skip_if: Option<String>,
}

#[derive(Debug)]
struct Variant {
    ident: String,
    /// `None` for unit variants, `Some(fields)` for struct variants.
    fields: Option<Vec<Field>>,
}

#[derive(Debug)]
enum Item {
    Named {
        name: String,
        fields: Vec<Field>,
    },
    Tuple {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---- item parsing -------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Outer attributes and visibility.
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2, // `#` + `[...]`
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1; // pub(crate) etc.
                }
            }
            _ => break,
        }
    }

    let kind = ident_text(&toks[i]);
    i += 1;
    let name = ident_text(&toks[i]);
    i += 1;
    if matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == '<') {
        panic!("serde stub derive: generic type `{name}` is not supported");
    }

    match kind.as_str() {
        "struct" => match &toks[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Item::Named {
                name,
                fields: parse_fields(g.stream()),
            },
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => Item::Tuple {
                name,
                arity: tuple_arity(g.stream()),
            },
            other => panic!("serde stub derive: unsupported struct body {other:?}"),
        },
        "enum" => match &toks[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde stub derive: unsupported enum body {other:?}"),
        },
        other => panic!("serde stub derive: expected struct/enum, found `{other}`"),
    }
}

fn ident_text(t: &TokenTree) -> String {
    match t {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde stub derive: expected identifier, found {other:?}"),
    }
}

/// Count fields of a tuple struct: top-level commas (angle-bracket aware).
fn tuple_arity(body: TokenStream) -> usize {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut arity = 1;
    for t in &toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => arity += 1,
                _ => {}
            }
        }
    }
    // A trailing comma would over-count; tolerate it.
    if matches!(toks.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
        arity -= 1;
    }
    arity
}

fn parse_fields(body: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();

    while i < toks.len() {
        let mut rename: Option<String> = None;
        let mut default = false;
        let mut skip_if: Option<String> = None;

        // Field attributes (doc comments and #[serde(...)]).
        while matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == '#') {
            let TokenTree::Group(attr) = &toks[i + 1] else {
                panic!("serde stub derive: malformed attribute");
            };
            parse_serde_attr(attr.stream(), &mut rename, &mut default, &mut skip_if);
            i += 2;
        }

        // Visibility.
        if matches!(&toks[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
                i += 1;
            }
        }

        let ident = ident_text(&toks[i]);
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => {
                panic!("serde stub derive: expected `:` after field `{ident}`, found {other:?}")
            }
        }

        // Skip the type up to the next top-level comma.
        let mut depth = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }

        let key = rename.unwrap_or_else(|| ident.clone());
        fields.push(Field {
            ident,
            key,
            default,
            skip_if,
        });
    }
    fields
}

/// Inspect one attribute body (`[...]` contents). Non-serde attributes
/// (doc comments and the like) are ignored.
fn parse_serde_attr(
    stream: TokenStream,
    rename: &mut Option<String>,
    default: &mut bool,
    skip_if: &mut Option<String>,
) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let is_serde = matches!(toks.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
    if !is_serde {
        return;
    }
    let TokenTree::Group(args) = &toks[1] else {
        panic!("serde stub derive: expected `serde(...)`");
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        let name = ident_text(&args[i]);
        i += 1;
        let value = if matches!(args.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            let lit = match &args[i + 1] {
                TokenTree::Literal(l) => l.to_string(),
                other => {
                    panic!("serde stub derive: expected string after `{name} =`, found {other:?}")
                }
            };
            i += 2;
            Some(lit.trim_matches('"').to_string())
        } else {
            None
        };
        match (name.as_str(), value) {
            ("rename", Some(v)) => *rename = Some(v),
            ("default", None) => *default = true,
            ("skip_serializing_if", Some(v)) => *skip_if = Some(v),
            (other, _) => panic!("serde stub derive: unsupported serde attribute `{other}`"),
        }
        if matches!(args.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();

    while i < toks.len() {
        while matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == '#') {
            i += 2; // doc comments; serde variant attrs are not used here
        }
        let ident = ident_text(&toks[i]);
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde stub derive: tuple enum variant `{ident}` is not supported")
            }
            _ => None,
        };
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { ident, fields });
    }
    variants
}

// ---- code generation ----------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Named { name, fields } => {
            let mut body =
                String::from("let mut entries: Vec<(String, ::serde::Value)> = Vec::new();\n");
            for f in fields {
                let push = format!(
                    "entries.push((\"{key}\".to_string(), ::serde::Serialize::to_value(&self.{id})));",
                    key = f.key,
                    id = f.ident
                );
                if let Some(skip) = &f.skip_if {
                    body.push_str(&format!(
                        "if !{skip}(&self.{id}) {{ {push} }}\n",
                        id = f.ident
                    ));
                } else {
                    body.push_str(&push);
                    body.push('\n');
                }
            }
            body.push_str("::serde::Value::Obj(entries)");
            wrap_serialize(name, &body)
        }
        Item::Tuple { name, arity: 1 } => {
            wrap_serialize(name, "::serde::Serialize::to_value(&self.0)")
        }
        Item::Tuple { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            wrap_serialize(
                name,
                &format!("::serde::Value::Arr(vec![{}])", items.join(", ")),
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                match &v.fields {
                    None => arms.push_str(&format!(
                        "{name}::{var} => ::serde::Value::Str(\"{var}\".to_string()),\n",
                        var = v.ident
                    )),
                    Some(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.ident.as_str()).collect();
                        let mut inner = String::from(
                            "let mut fields: Vec<(String, ::serde::Value)> = Vec::new();\n",
                        );
                        for f in fields {
                            inner.push_str(&format!(
                                "fields.push((\"{key}\".to_string(), ::serde::Serialize::to_value({id})));\n",
                                key = f.key,
                                id = f.ident
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{var} {{ {binds} }} => {{ {inner} ::serde::Value::Obj(vec![(\"{var}\".to_string(), ::serde::Value::Obj(fields))]) }}\n",
                            var = v.ident,
                            binds = binds.join(", "),
                        ));
                    }
                }
            }
            wrap_serialize(name, &format!("match self {{ {arms} }}"))
        }
    }
}

fn wrap_serialize(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

/// Expression producing one struct field from object lookup `{obj}`.
fn field_expr(obj: &str, owner: &str, f: &Field) -> String {
    let absent = if f.default {
        "::std::default::Default::default()".to_string()
    } else {
        format!(
            "match ::serde::Deserialize::absent() {{ Some(d) => d, None => return Err(::serde::DeError::new(\"{owner}: missing field `{key}`\")) }}",
            key = f.key
        )
    };
    format!(
        "{id}: match {obj}.get(\"{key}\") {{ Some(x) => ::serde::Deserialize::from_value(x)?, None => {absent} }},",
        id = f.ident,
        key = f.key
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Named { name, fields } => {
            let inits: Vec<String> = fields.iter().map(|f| field_expr("v", name, f)).collect();
            let body = format!(
                "match v {{\n\
                     ::serde::Value::Obj(_) => Ok({name} {{ {inits} }}),\n\
                     other => Err(::serde::DeError::new(format!(\"expected object for {name}, found {{other:?}}\"))),\n\
                 }}",
                inits = inits.join("\n")
            );
            wrap_deserialize(name, &body)
        }
        Item::Tuple { name, arity: 1 } => wrap_deserialize(
            name,
            &format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
        ),
        Item::Tuple { name, arity } => {
            let items: Vec<String> = (0..*arity)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(items.get({i}).ok_or_else(|| ::serde::DeError::new(\"{name}: tuple too short\"))?)?"
                    )
                })
                .collect();
            let body = format!(
                "match v {{\n\
                     ::serde::Value::Arr(items) => Ok({name}({items})),\n\
                     other => Err(::serde::DeError::new(format!(\"expected array for {name}, found {{other:?}}\"))),\n\
                 }}",
                items = items.join(", ")
            );
            wrap_deserialize(name, &body)
        }
        Item::Enum { name, variants } => {
            let units: Vec<&Variant> = variants.iter().filter(|v| v.fields.is_none()).collect();
            let structs: Vec<&Variant> = variants.iter().filter(|v| v.fields.is_some()).collect();

            let mut arms = String::new();
            if !units.is_empty() {
                let mut unit_arms = String::new();
                for v in &units {
                    unit_arms
                        .push_str(&format!("\"{var}\" => Ok({name}::{var}),\n", var = v.ident));
                }
                arms.push_str(&format!(
                    "::serde::Value::Str(s) => match s.as_str() {{\n{unit_arms}\
                         other => Err(::serde::DeError::new(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                     }},\n"
                ));
            }
            if !structs.is_empty() {
                let mut tag_arms = String::new();
                for v in &structs {
                    let fields = v.fields.as_ref().unwrap();
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|f| field_expr("inner", name, f))
                        .collect();
                    tag_arms.push_str(&format!(
                        "\"{var}\" => Ok({name}::{var} {{ {inits} }}),\n",
                        var = v.ident,
                        inits = inits.join("\n")
                    ));
                }
                arms.push_str(&format!(
                    "::serde::Value::Obj(entries) if entries.len() == 1 => {{\n\
                         let (tag, inner) = &entries[0];\n\
                         match tag.as_str() {{\n{tag_arms}\
                             other => Err(::serde::DeError::new(format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                         }}\n\
                     }},\n"
                ));
            }
            let body = format!(
                "match v {{\n{arms}\
                     other => Err(::serde::DeError::new(format!(\"unexpected value for {name}: {{other:?}}\"))),\n\
                 }}"
            );
            wrap_deserialize(name, &body)
        }
    }
}

fn wrap_deserialize(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         }}"
    )
}
